package lint

import (
	"strings"
	"testing"
)

// FuzzParseAllowNames drives the //lint:allow directive parser with
// adversarial comment text and checks its contract: it accepts exactly
// the well-formed directives (prefix, then a space or tab, then a
// non-empty first field) and returns the comma-split of that first
// field, never anything derived from the free-form justification. The
// parser gates every suppression in the repo — a parse bug either
// silences analyzers that should fire or un-silences audited escape
// hatches — so its acceptance language is pinned by fuzzing rather than
// by a handful of examples.
func FuzzParseAllowNames(f *testing.F) {
	f.Add("//lint:allow wallclock the live harness reads real time")
	f.Add("//lint:allow wallclock,seededrand two at once")
	f.Add("//lint:allow\teffects tab separator")
	f.Add("//lint:allow")
	f.Add("//lint:allowx not a directive")
	f.Add("// lint:allow leading space disqualifies")
	f.Add("//lint:allow  maporder   extra   spacing")
	f.Add("//lint:allow ,,, odd name list")
	f.Add("/*lint:allow exhaustive block comment*/")
	f.Add("//lint:hotpath")
	f.Add("//lint:allow effects")
	f.Fuzz(func(t *testing.T, text string) {
		names := parseAllowNames(text)

		// Differential well-formedness check against a direct
		// reimplementation of the documented acceptance rule.
		rest, hasPrefix := strings.CutPrefix(text, "//lint:allow")
		wellFormed := hasPrefix &&
			rest != "" && (rest[0] == ' ' || rest[0] == '\t') &&
			len(strings.Fields(rest)) > 0
		if wellFormed != (names != nil) {
			t.Fatalf("parseAllowNames(%q) = %v, but well-formed = %v", text, names, wellFormed)
		}
		if names == nil {
			return
		}

		// The names are exactly the comma-split of the first field: no
		// empties invented, none dropped, and nothing from the
		// justification text after it.
		first := strings.Fields(rest)[0]
		want := strings.Split(first, ",")
		if len(names) != len(want) {
			t.Fatalf("parseAllowNames(%q) = %v, want %v", text, names, want)
		}
		for i := range want {
			if names[i] != want[i] {
				t.Fatalf("parseAllowNames(%q)[%d] = %q, want %q", text, i, names[i], want[i])
			}
		}
		for _, n := range names {
			if strings.ContainsAny(n, ", \t") {
				t.Fatalf("parseAllowNames(%q) returned name %q containing a separator", text, n)
			}
		}

		// Idempotence: parsing is a pure function of the text.
		again := parseAllowNames(text)
		if len(again) != len(names) {
			t.Fatalf("parseAllowNames(%q) is not deterministic: %v vs %v", text, names, again)
		}
	})
}
