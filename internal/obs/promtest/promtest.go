// Package promtest is a minimal Prometheus text-format (0.0.4)
// validator for tests that scrape a metrics exposition: it verifies
// the comment grammar, sample-line shape, TYPE consistency, and that
// histogram families carry coherent _bucket/_sum/_count series. It is
// deliberately a parser of the format, not of obs's output, so it
// would catch exposition bugs rather than mirror them.
package promtest

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// nameRE is the metric and label name grammar.
var nameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

func validName(s string) bool { return nameRE.MatchString(s) }

// ParsedMetrics maps each sample's full series name (name plus
// rendered label set, exactly as exposed) to its value.
type ParsedMetrics struct {
	Samples map[string]float64
	Types   map[string]string // family name → TYPE
}

// Value returns the sample for an exact series key.
func (p *ParsedMetrics) Value(series string) (float64, bool) {
	v, ok := p.Samples[series]
	return v, ok
}

// CheckText parses a Prometheus text exposition and returns the
// samples, or an error describing the first malformed line.
func CheckText(text string) (*ParsedMetrics, error) {
	p := &ParsedMetrics{Samples: map[string]float64{}, Types: map[string]string{}}
	for i, line := range strings.Split(text, "\n") {
		lineNo := i + 1
		line = strings.TrimRight(line, "\r")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := p.comment(line); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		if err := p.sample(line); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	if err := p.checkHistograms(); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *ParsedMetrics) comment(line string) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 {
		return nil // bare comment
	}
	switch fields[1] {
	case "TYPE":
		if len(fields) < 4 {
			return fmt.Errorf("malformed TYPE comment %q", line)
		}
		name, typ := fields[2], fields[3]
		if !validName(name) {
			return fmt.Errorf("TYPE for invalid metric name %q", name)
		}
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q for %q", typ, name)
		}
		if prev, ok := p.Types[name]; ok && prev != typ {
			return fmt.Errorf("metric %q declared both %s and %s", name, prev, typ)
		}
		p.Types[name] = typ
	case "HELP":
		if len(fields) < 3 || !validName(fields[2]) {
			return fmt.Errorf("malformed HELP comment %q", line)
		}
	}
	return nil
}

// sample parses `name{labels} value` or `name value`.
func (p *ParsedMetrics) sample(line string) error {
	series, valueStr, err := splitSample(line)
	if err != nil {
		return err
	}
	v, err := strconv.ParseFloat(valueStr, 64)
	if err != nil && valueStr != "+Inf" && valueStr != "-Inf" && valueStr != "NaN" {
		return fmt.Errorf("bad sample value %q in %q", valueStr, line)
	}
	if _, dup := p.Samples[series]; dup {
		return fmt.Errorf("duplicate series %q", series)
	}
	p.Samples[series] = v
	return nil
}

// splitSample separates the series (respecting quoted label values
// that may contain spaces) from the value.
func splitSample(line string) (series, value string, err error) {
	inQuotes := false
	esc := false
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case esc:
			esc = false
		case c == '\\' && inQuotes:
			esc = true
		case c == '"':
			inQuotes = !inQuotes
		case c == ' ' && !inQuotes:
			series, rest := line[:i], strings.TrimSpace(line[i+1:])
			if series == "" || rest == "" {
				return "", "", fmt.Errorf("malformed sample line %q", line)
			}
			// Value may be followed by an optional timestamp.
			if j := strings.IndexByte(rest, ' '); j >= 0 {
				rest = rest[:j]
			}
			if err := checkSeriesName(series); err != nil {
				return "", "", err
			}
			return series, rest, nil
		}
	}
	return "", "", fmt.Errorf("sample line %q has no value", line)
}

func checkSeriesName(series string) error {
	name := series
	if i := strings.IndexByte(series, '{'); i >= 0 {
		if !strings.HasSuffix(series, "}") {
			return fmt.Errorf("unterminated label set in %q", series)
		}
		name = series[:i]
	}
	if !validName(name) {
		return fmt.Errorf("invalid metric name in series %q", series)
	}
	return nil
}

// checkHistograms verifies that every family declared histogram has
// _sum, _count, and at least one _bucket with a le="+Inf" bound whose
// cumulative count equals _count, per label set.
func (p *ParsedMetrics) checkHistograms() error {
	for name, typ := range p.Types {
		if typ != "histogram" {
			continue
		}
		counts := map[string]float64{} // non-le label suffix → _count
		infs := map[string]float64{}   // non-le label suffix → +Inf bucket
		for series, v := range p.Samples {
			switch {
			case matchesFamily(series, name+"_count"):
				counts[labelsOf(series)] = v
			case matchesFamily(series, name+"_bucket"):
				labels := labelsOf(series)
				if le, rest, ok := extractLe(labels); ok && le == "+Inf" {
					infs[rest] = v
				}
			}
		}
		if len(counts) == 0 {
			return fmt.Errorf("histogram %q has no _count series", name)
		}
		for labels, c := range counts {
			inf, ok := infs[labels]
			if !ok {
				return fmt.Errorf("histogram %q%s has no le=\"+Inf\" bucket", name, labels)
			}
			if inf != c {
				return fmt.Errorf("histogram %q%s: +Inf bucket %g != count %g", name, labels, inf, c)
			}
			if _, ok := p.Samples[name+"_sum"+labels]; !ok {
				return fmt.Errorf("histogram %q%s has no _sum series", name, labels)
			}
		}
	}
	return nil
}

func matchesFamily(series, family string) bool {
	if !strings.HasPrefix(series, family) {
		return false
	}
	rest := series[len(family):]
	return rest == "" || rest[0] == '{'
}

func labelsOf(series string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[i:]
	}
	return ""
}

// extractLe removes the le label from a rendered label set, returning
// its value and the remaining labels rendered canonically.
func extractLe(labels string) (le, rest string, ok bool) {
	if labels == "" {
		return "", "", false
	}
	body := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
	parts := splitLabels(body)
	kept := make([]string, 0, len(parts))
	for _, part := range parts {
		if strings.HasPrefix(part, `le="`) {
			le = strings.TrimSuffix(strings.TrimPrefix(part, `le="`), `"`)
			ok = true
			continue
		}
		kept = append(kept, part)
	}
	if len(kept) == 0 {
		return le, "", ok
	}
	return le, "{" + strings.Join(kept, ",") + "}", ok
}

// splitLabels splits k="v" pairs on commas outside quotes.
func splitLabels(body string) []string {
	var parts []string
	start, inQuotes, esc := 0, false, false
	for i := 0; i < len(body); i++ {
		c := body[i]
		switch {
		case esc:
			esc = false
		case c == '\\' && inQuotes:
			esc = true
		case c == '"':
			inQuotes = !inQuotes
		case c == ',' && !inQuotes:
			parts = append(parts, body[start:i])
			start = i + 1
		}
	}
	if start < len(body) {
		parts = append(parts, body[start:])
	}
	return parts
}
