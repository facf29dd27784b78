// Prometheus text exposition (version 0.0.4), hand-rolled: the repo takes
// no dependencies, and the subset we emit — counters, gauges, and
// cumulative histograms with le buckets — is small enough to write and
// parse by hand. ParseProm exists so tests can scrape what we expose and
// assert on it without a Prometheus binary.
package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

func writeLabels(w *bufio.Writer, labels []Label, extra ...Label) {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return
	}
	w.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%s=%q", l.Name, l.Value)
	}
	w.WriteByte('}')
}

func writeSample(w *bufio.Writer, name string, labels []Label, v int64, extra ...Label) {
	w.WriteString(name)
	writeLabels(w, labels, extra...)
	w.WriteByte(' ')
	w.WriteString(strconv.FormatInt(v, 10))
	w.WriteByte('\n')
}

// WriteProm renders every registered instrument in Prometheus text
// exposition format. Families are sorted by name; series within a family
// keep registration order. Histograms emit cumulative _bucket{le=...}
// series plus _sum and _count.
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.Lock()
	entries := append([]*entry(nil), r.entries...)
	r.mu.Unlock()
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].name < entries[j].name })

	bw := bufio.NewWriter(w)
	lastFamily := ""
	for _, e := range entries {
		if e.name != lastFamily {
			if e.help != "" {
				fmt.Fprintf(bw, "# HELP %s %s\n", e.name, e.help)
			}
			fmt.Fprintf(bw, "# TYPE %s %s\n", e.name, e.typ)
			lastFamily = e.name
		}
		switch e.typ {
		case typeHist:
			writeHistProm(bw, e.name, e.labels, e.hist.Snapshot())
		default:
			writeSample(bw, e.name, e.labels, e.read())
		}
	}
	return bw.Flush()
}

func writeHistProm(w *bufio.Writer, name string, labels []Label, s HistSnapshot) {
	cum := int64(0)
	for i, b := range s.Bounds {
		cum += s.Counts[i]
		writeSample(w, name+"_bucket", labels, cum, Label{"le", formatBound(b)})
	}
	if n := len(s.Bounds); n < len(s.Counts) {
		cum += s.Counts[n]
	}
	writeSample(w, name+"_bucket", labels, cum, Label{"le", "+Inf"})
	writeSample(w, name+"_sum", labels, s.Sum)
	writeSample(w, name+"_count", labels, s.Count)
}

func formatBound(b int64) string { return strconv.FormatInt(b, 10) }

// Sample is one parsed exposition line.
type Sample struct {
	Name   string
	Labels []Label
	Value  float64
}

// Key renders the sample's identity as name{label="value",...}.
func (s Sample) Key() string {
	if len(s.Labels) == 0 {
		return s.Name
	}
	parts := make([]string, len(s.Labels))
	for i, l := range s.Labels {
		parts[i] = fmt.Sprintf("%s=%q", l.Name, l.Value)
	}
	return s.Name + "{" + strings.Join(parts, ",") + "}"
}

// Label returns the value of the named label ("" when absent).
func (s Sample) Label(name string) string {
	for _, l := range s.Labels {
		if l.Name == name {
			return l.Value
		}
	}
	return ""
}

// ParseProm parses Prometheus text exposition into samples, ignoring
// comment and blank lines. Label values may contain escaped quotes,
// backslashes, and commas; sample values may use exponent notation.
func ParseProm(r io.Reader) ([]Sample, error) {
	var out []Sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func parseSample(line string) (Sample, error) {
	var s Sample
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		s.Name = rest[:i]
		end := strings.LastIndexByte(rest, '}')
		if end < i {
			return s, fmt.Errorf("telemetry: unterminated label block: %q", line)
		}
		labels, err := parseLabels(rest[i+1 : end])
		if err != nil {
			return s, fmt.Errorf("telemetry: %v in %q", err, line)
		}
		s.Labels = labels
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) != 2 {
			return s, fmt.Errorf("telemetry: malformed sample line: %q", line)
		}
		s.Name, rest = fields[0], fields[1]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return s, fmt.Errorf("telemetry: bad value in %q: %v", line, err)
	}
	s.Value = v
	return s, nil
}

// parseLabels scans a label block ('name="value",...') left to right,
// honoring backslash escapes inside quoted values — a naive comma split
// would shred values that themselves contain commas or escaped quotes.
func parseLabels(block string) ([]Label, error) {
	block = strings.TrimSpace(block)
	var out []Label
	for block != "" {
		eq := strings.IndexByte(block, '=')
		if eq < 0 {
			return nil, fmt.Errorf("label without '=': %q", block)
		}
		name := strings.TrimSpace(block[:eq])
		rest := strings.TrimSpace(block[eq+1:])
		if rest == "" || rest[0] != '"' {
			return nil, fmt.Errorf("unquoted label value after %q", name)
		}
		end := -1
		for i := 1; i < len(rest); i++ {
			if rest[i] == '\\' {
				i++ // skip the escaped byte
				continue
			}
			if rest[i] == '"' {
				end = i
				break
			}
		}
		if end < 0 {
			return nil, fmt.Errorf("unterminated label value after %q", name)
		}
		val, err := strconv.Unquote(rest[:end+1])
		if err != nil {
			return nil, fmt.Errorf("bad label value for %q: %v", name, err)
		}
		out = append(out, Label{Name: name, Value: val})
		block = strings.TrimSpace(rest[end+1:])
		if block == "" {
			break
		}
		if block[0] != ',' {
			return nil, fmt.Errorf("expected ',' between labels, got %q", block)
		}
		// A trailing comma before '}' is legal exposition syntax.
		block = strings.TrimSpace(block[1:])
	}
	return out, nil
}

// SampleValue finds the first sample with the given name (any labels) and
// returns its value; ok reports whether it was found.
func SampleValue(samples []Sample, name string) (float64, bool) {
	for _, s := range samples {
		if s.Name == name {
			return s.Value, true
		}
	}
	return 0, false
}
