package upstreams

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// ParseHedge parses the hedging spec: "" or "off" disables hedging;
// "on" enables it with defaults; otherwise comma-separated knobs
// p=0.95,min=10ms,max=2s.
func ParseHedge(spec string) (HedgeConfig, error) {
	var h HedgeConfig
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "off" {
		return h, nil
	}
	h.Enabled = true
	if spec == "on" {
		return h, nil
	}
	for _, item := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(item), "=")
		if !ok {
			return HedgeConfig{}, fmt.Errorf("upstreams: hedge %q: want key=value", item)
		}
		switch k {
		case "p":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || f <= 0 || f > 1 {
				return HedgeConfig{}, fmt.Errorf("upstreams: hedge p=%q: want a percentile in (0,1]", v)
			}
			h.Percentile = f
		case "min", "max":
			d, err := time.ParseDuration(v)
			if err != nil || d <= 0 {
				return HedgeConfig{}, fmt.Errorf("upstreams: hedge %s=%q: want a positive duration", k, v)
			}
			if k == "min" {
				h.Min = d
			} else {
				h.Max = d
			}
		default:
			return HedgeConfig{}, fmt.Errorf("upstreams: unknown hedge knob %q (have p min max)", k)
		}
	}
	if h.Min > 0 && h.Max > 0 && h.Min > h.Max {
		return HedgeConfig{}, fmt.Errorf("upstreams: hedge min %v exceeds max %v", h.Min, h.Max)
	}
	return h, nil
}

// ParseBreaker parses the circuit-breaker spec: "" enables the default
// gate; "off" disables it; otherwise comma-separated knobs
// fails=5,open=30s,probes=2.
func ParseBreaker(spec string) (BreakerConfig, error) {
	var b BreakerConfig
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return b, nil
	}
	if spec == "off" {
		b.Disabled = true
		return b, nil
	}
	for _, item := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(item), "=")
		if !ok {
			return BreakerConfig{}, fmt.Errorf("upstreams: breaker %q: want key=value", item)
		}
		switch k {
		case "fails", "probes":
			i, err := strconv.Atoi(v)
			if err != nil || i < 1 {
				return BreakerConfig{}, fmt.Errorf("upstreams: breaker %s=%q: want a positive count", k, v)
			}
			if k == "fails" {
				b.Failures = i
			} else {
				b.Probes = i
			}
		case "open":
			d, err := time.ParseDuration(v)
			if err != nil || d <= 0 {
				return BreakerConfig{}, fmt.Errorf("upstreams: breaker open=%q: want a positive duration", v)
			}
			b.OpenFor = d
		default:
			return BreakerConfig{}, fmt.Errorf("upstreams: unknown breaker knob %q (have fails open probes)", k)
		}
	}
	return b, nil
}

// ParseLadder parses the EDNS fallback ladder spec: "" uses the
// default 4096,1232 ladder; "off" disables fallback; otherwise a
// comma-separated strictly-decreasing list of payload sizes, with an
// optional trailing decay=<duration> knob, e.g. "4096,1400,1232,decay=2m".
func ParseLadder(spec string) (LadderConfig, error) {
	var l LadderConfig
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return l, nil
	}
	if spec == "off" {
		l.Disabled = true
		return l, nil
	}
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if v, ok := strings.CutPrefix(item, "decay="); ok {
			d, err := time.ParseDuration(v)
			if err != nil || d == 0 {
				return LadderConfig{}, fmt.Errorf("upstreams: ladder decay=%q: want a non-zero duration (negative never decays)", v)
			}
			l.Decay = d
			continue
		}
		i, err := strconv.Atoi(item)
		if err != nil || i < 512 || i > 65535 {
			return LadderConfig{}, fmt.Errorf("upstreams: ladder step %q: want a payload size in [512,65535]", item)
		}
		if n := len(l.Steps); n > 0 && uint16(i) >= l.Steps[n-1] {
			return LadderConfig{}, fmt.Errorf("upstreams: ladder step %q: steps must strictly decrease", item)
		}
		l.Steps = append(l.Steps, uint16(i))
	}
	if len(l.Steps) == 0 {
		return LadderConfig{}, fmt.Errorf("upstreams: ladder %q has no steps", spec)
	}
	return l, nil
}
