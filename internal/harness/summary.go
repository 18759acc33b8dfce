package harness

import (
	"fmt"
	"strings"
	"unicode"
)

// The Summary line is the one-line machine-readable run descriptor the
// CLIs print on stdout (VSA-harness style): the literal prefix
// "Summary:" followed by space-separated key=value pairs, in the order
// given. Keys are lower_snake identifiers; values are numbers,
// identifiers or hex digests. Neither may contain a Unicode space
// (unicode.IsSpace), the separator ParseSummary splits on. Scripts grep
// the prefix and split on spaces — same grammar across flexbench,
// faultbench and fairness, covered by TestSummaryRoundTrip.

// KV is one key=value pair of a Summary line.
type KV struct {
	Key   string
	Value string
}

// KVf formats a value into a KV.
func KVf(key, format string, args ...any) KV {
	return KV{Key: key, Value: fmt.Sprintf(format, args...)}
}

// SummaryLine renders the pairs as a Summary line (no trailing
// newline). It panics on keys or values that would break the grammar —
// a programming error, not an input error.
func SummaryLine(kvs ...KV) string {
	var b strings.Builder
	b.WriteString("Summary:")
	for _, kv := range kvs {
		if kv.Key == "" || strings.ContainsRune(kv.Key, '=') ||
			strings.IndexFunc(kv.Key, unicode.IsSpace) >= 0 ||
			strings.IndexFunc(kv.Value, unicode.IsSpace) >= 0 {
			panic(fmt.Sprintf("harness: malformed summary pair %q=%q", kv.Key, kv.Value))
		}
		b.WriteByte(' ')
		b.WriteString(kv.Key)
		b.WriteByte('=')
		b.WriteString(kv.Value)
	}
	return b.String()
}

// ParseSummary parses a Summary line back into its pairs. ok is false
// when the line is not a Summary line or a field is not key=value.
// Later duplicate keys win.
func ParseSummary(line string) (kvs map[string]string, ok bool) {
	rest, found := strings.CutPrefix(strings.TrimSpace(line), "Summary:")
	if !found {
		return nil, false
	}
	kvs = make(map[string]string)
	for _, f := range strings.Fields(rest) {
		k, v, found := strings.Cut(f, "=")
		if !found || k == "" {
			return nil, false
		}
		kvs[k] = v
	}
	return kvs, true
}

// FindSummary scans multi-line tool output for the first Summary line
// and parses it.
func FindSummary(output string) (map[string]string, bool) {
	for _, line := range strings.Split(output, "\n") {
		if kvs, ok := ParseSummary(line); ok {
			return kvs, ok
		}
	}
	return nil, false
}
