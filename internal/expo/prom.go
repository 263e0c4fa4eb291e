package expo

import (
	"io"
	"math"
	"strconv"
	"strings"
)

// Prometheus metric types.
const (
	Counter = "counter"
	Gauge   = "gauge"
)

// Family is one Prometheus metric family: a name, its HELP text and
// TYPE, and every labelled sample. Counter names end in _total.
type Family struct {
	Name, Help, Type string
	Samples          []Sample
}

// Sample is one value of a family. Labels holds name, value pairs in
// exposition order.
type Sample struct {
	Labels []string
	Value  float64
}

// Single returns a family with one sample, labelled by name, value
// pairs.
func Single(name, typ, help string, v float64, labels ...string) Family {
	f := Family{Name: name, Help: help, Type: typ}
	f.Add(v, labels...)
	return f
}

// Add appends one sample labelled by name, value pairs.
func (f *Family) Add(v float64, labels ...string) {
	if len(labels)%2 != 0 {
		panic("expo: odd label list for " + f.Name)
	}
	f.Samples = append(f.Samples, Sample{Labels: labels, Value: v})
}

// WritePrometheus renders the families in Prometheus text exposition
// format: HELP and TYPE once per family, then its samples. A family
// with no samples still writes its header.
func WritePrometheus(w io.Writer, fams ...Family) error {
	var b strings.Builder
	for _, f := range fams {
		b.WriteString("# HELP " + f.Name + " " + helpEscaper.Replace(f.Help) + "\n")
		b.WriteString("# TYPE " + f.Name + " " + f.Type + "\n")
		for _, s := range f.Samples {
			b.WriteString(f.Name)
			for i := 0; i < len(s.Labels); i += 2 {
				if i == 0 {
					b.WriteByte('{')
				} else {
					b.WriteByte(',')
				}
				b.WriteString(s.Labels[i] + `="` + labelEscaper.Replace(s.Labels[i+1]) + `"`)
			}
			if len(s.Labels) > 0 {
				b.WriteByte('}')
			}
			b.WriteString(" " + formatValue(s.Value) + "\n")
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// formatValue prints integral values as integers (counters stay exact
// and greppable) and everything else in shortest float form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var (
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
)
