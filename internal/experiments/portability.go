package experiments

import (
	"fmt"
	"strings"

	"bitgen/internal/engine"
	"bitgen/internal/gpusim"
	"bitgen/internal/nfa"
)

// PortabilityRow is one application's normalized throughput per device
// (Figure 15).
type PortabilityRow struct {
	App string
	// BitGen / NgAP map device name → throughput normalized to RTX 3090.
	BitGen map[string]float64
	NgAP   map[string]float64
}

// PortabilityResult is the regenerated Figure 15.
type PortabilityResult struct {
	Devices []string
	Rows    []PortabilityRow
	// Gmean per device, for both engines.
	GmeanBitGen map[string]float64
	GmeanNgAP   map[string]float64
}

// Figure15Portability reruns the cost model per device. BitGen's counters
// are device-independent (the same kernel work), so each application
// executes once and is re-costed per profile; ngAP likewise reuses its
// simulation statistics.
func (s *Suite) Figure15Portability() (*PortabilityResult, error) {
	devices := gpusim.Devices()
	out := &PortabilityResult{
		GmeanBitGen: make(map[string]float64),
		GmeanNgAP:   make(map[string]float64),
	}
	for _, d := range devices {
		out.Devices = append(out.Devices, d.Name)
	}
	perDeviceBG := make(map[string][]float64)
	perDeviceNG := make(map[string][]float64)
	for _, name := range s.opts.Apps {
		app, err := s.App(name)
		if err != nil {
			return nil, err
		}
		// Execute once on the default profile to collect counters.
		res, _, err := s.runBitGen(app, engine.BitGenDefault())
		if err != nil {
			return nil, err
		}
		grid := s.gridFor(app, gpusim.Grid{})
		row := PortabilityRow{App: name, BitGen: map[string]float64{}, NgAP: map[string]float64{}}
		var bg3090, ng3090 float64
		// ngAP simulation statistics are also device-independent.
		_, simStats, err := s.runNgAP(app, gpusim.RTX3090)
		if err != nil {
			return nil, err
		}
		model := nfa.DefaultNgAPModel()
		for _, d := range devices {
			tb := gpusim.EstimateTime(d, grid, &res.Stats)
			bg := gpusim.ThroughputMBs(res.Stats.InputBytes, tb.TotalSec)
			ng := model.ThroughputMBs(d, simStats)
			if d.Name == gpusim.RTX3090.Name {
				bg3090, ng3090 = bg, ng
			}
			row.BitGen[d.Name] = bg
			row.NgAP[d.Name] = ng
		}
		for _, d := range devices {
			if bg3090 > 0 {
				row.BitGen[d.Name] /= bg3090
			}
			if ng3090 > 0 {
				row.NgAP[d.Name] /= ng3090
			}
			perDeviceBG[d.Name] = append(perDeviceBG[d.Name], row.BitGen[d.Name])
			perDeviceNG[d.Name] = append(perDeviceNG[d.Name], row.NgAP[d.Name])
		}
		out.Rows = append(out.Rows, row)
	}
	for _, d := range devices {
		out.GmeanBitGen[d.Name] = gmean(perDeviceBG[d.Name])
		out.GmeanNgAP[d.Name] = gmean(perDeviceNG[d.Name])
	}
	return out, nil
}

// Render formats the figure data.
func (r *PortabilityResult) Render() string {
	var b strings.Builder
	b.WriteString("Figure 15: throughput across GPUs, normalized to RTX 3090\n")
	fmt.Fprintf(&b, "%-11s |", "App")
	for _, d := range r.Devices {
		fmt.Fprintf(&b, " BG %-9s", shortDev(d))
	}
	b.WriteString("|")
	for _, d := range r.Devices {
		fmt.Fprintf(&b, " ngAP %-7s", shortDev(d))
	}
	b.WriteString("\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-11s |", row.App)
		for _, d := range r.Devices {
			fmt.Fprintf(&b, " %11.2f", row.BitGen[d])
		}
		b.WriteString("|")
		for _, d := range r.Devices {
			fmt.Fprintf(&b, " %11.2f", row.NgAP[d])
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "%-11s |", "Gmean")
	for _, d := range r.Devices {
		fmt.Fprintf(&b, " %11.2f", r.GmeanBitGen[d])
	}
	b.WriteString("|")
	for _, d := range r.Devices {
		fmt.Fprintf(&b, " %11.2f", r.GmeanNgAP[d])
	}
	b.WriteString("\n")
	return b.String()
}

// CSV emits comma-separated rows.
func (r *PortabilityResult) CSV() string {
	var b strings.Builder
	b.WriteString("app,engine")
	for _, d := range r.Devices {
		b.WriteString("," + strings.ReplaceAll(shortDev(d), " ", "_"))
	}
	b.WriteString("\n")
	for _, row := range r.Rows {
		b.WriteString(row.App + ",bitgen")
		for _, d := range r.Devices {
			fmt.Fprintf(&b, ",%.3f", row.BitGen[d])
		}
		b.WriteString("\n" + row.App + ",ngap")
		for _, d := range r.Devices {
			fmt.Fprintf(&b, ",%.3f", row.NgAP[d])
		}
		b.WriteString("\n")
	}
	return b.String()
}

func shortDev(name string) string {
	switch name {
	case "RTX 3090":
		return "3090"
	case "H100 NVL":
		return "H100"
	}
	return name
}
