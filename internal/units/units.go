// Package units provides conversions between linear power ratios and
// decibels, along with small helpers for dBm-referenced powers and
// path-loss-equivalent distances.
//
// Throughout the model powers are dimensionless linear ratios relative
// to P0, the signal power at unit distance. The packet-level simulator
// instead works in dBm; both conventions meet here.
package units

import "math"

// DB converts a linear power ratio to decibels.
// DB(0) returns -Inf, which is the correct limiting value and flows
// through the capacity formulas safely.
func DB(linear float64) float64 {
	return 10 * math.Log10(linear)
}

// Linear converts decibels to a linear power ratio.
func Linear(db float64) float64 {
	return math.Pow(10, db/10)
}

// DBmToWatts converts a power in dBm to watts.
func DBmToWatts(dbm float64) float64 {
	return math.Pow(10, (dbm-30)/10)
}

// WattsToDBm converts a power in watts to dBm.
func WattsToDBm(w float64) float64 {
	return 10*math.Log10(w) + 30
}

// MilliwattsToDBm converts a power in milliwatts to dBm.
func MilliwattsToDBm(mw float64) float64 {
	return 10 * math.Log10(mw)
}

// DBmToMilliwatts converts a power in dBm to milliwatts.
func DBmToMilliwatts(dbm float64) float64 {
	return math.Pow(10, dbm/10)
}

// PathLossDistance returns the distance at which a power-law path loss
// with exponent alpha produces the given linear power ratio p relative
// to unit distance: the D such that D^-alpha == p.
//
// This is the paper's D_threshold = P_threshold^(-1/alpha) relation
// (§3.2.2). The exponent is negative: a larger threshold power is a
// shorter threshold distance.
func PathLossDistance(p, alpha float64) float64 {
	return math.Pow(p, -1/alpha)
}

// PathLossPower returns the linear power ratio received at distance d
// under a power-law path loss with exponent alpha: d^-alpha.
func PathLossPower(d, alpha float64) float64 {
	return math.Pow(d, -alpha)
}

// EquivalentDistance re-expresses a power threshold as a distance under
// a *different* path loss exponent. Figure 7 of the paper plots optimal
// thresholds "expressed as the equivalent distance at α = 3" so that
// curves for different propagation environments share one axis.
func EquivalentDistance(p, alpha float64) float64 {
	return PathLossDistance(p, alpha)
}

// SNRFromPowers returns the linear signal-to-noise-plus-interference
// ratio for the given linear signal, interference and noise powers.
func SNRFromPowers(signal, interference, noise float64) float64 {
	return signal / (noise + interference)
}
