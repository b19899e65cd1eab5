// Package propagation holds the knife-edge diffraction model of §3.4:
// the Fresnel-Kirchhoff parameter of an obstruction and Lee's
// approximation of the loss it causes. The barrier scenario uses them
// to argue that a barrier cannot hide one sender from another's
// carrier sense.
package propagation

import "math"

// KnifeEdgeDiffractionLossDB returns the knife-edge diffraction loss
// in dB for the given Fresnel-Kirchhoff parameter v, using Lee's
// piecewise approximation. §3.4 cites ≈30 dB of diffraction loss for a
// barrier 5 m away at 2.4 GHz as the reason even "opaque" barriers
// cannot hide a sender from carrier sense.
func KnifeEdgeDiffractionLossDB(v float64) float64 {
	switch {
	case v <= -1:
		return 0
	case v <= 0:
		return 20 * math.Log10(0.5-0.62*v) * -1
	case v <= 1:
		return 20 * math.Log10(0.5*math.Exp(-0.95*v)) * -1
	case v <= 2.4:
		return 20 * math.Log10(0.4-math.Sqrt(0.1184-(0.38-0.1*v)*(0.38-0.1*v))) * -1
	default:
		return 20 * math.Log10(0.225/v) * -1
	}
}

// FresnelV returns the Fresnel-Kirchhoff diffraction parameter for an
// obstruction of height h (above the line of sight) at distances d1
// and d2 (meters) from the two endpoints, at wavelength lambda.
func FresnelV(h, d1, d2, lambda float64) float64 {
	return h * math.Sqrt(2*(d1+d2)/(lambda*d1*d2))
}
