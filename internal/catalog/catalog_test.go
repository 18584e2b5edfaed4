package catalog

import (
	"flag"
	"io"
	"testing"
)

// TestDefaultsInRange holds every setting's default, the size the tools
// run when no flag is given, inside the setting's own range.
func TestDefaultsInRange(t *testing.T) {
	for _, f := range Families {
		for _, s := range f.Settings() {
			if err := s.Check(s.Default); err != nil {
				t.Errorf("%s: default out of range: %v", f.Name, err)
			}
		}
	}
}

func TestSettingCheck(t *testing.T) {
	bits, _ := Lookup("hamming")
	if got, want := bits.Size().Check(70).Error(), "need 1 <= bits <= 62, got 70"; got != want {
		t.Errorf("bits=70: %q, want %q", got, want)
	}
	tri, _ := Lookup("triangle")
	if got, want := tri.Size().Check(2).Error(), "need nodes >= 3, got 2"; got != want {
		t.Errorf("nodes=2: %q, want %q", got, want)
	}
	if err := tri.Size().Check(3); err != nil {
		t.Errorf("nodes=3 rejected: %v", err)
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("unknown family accepted")
	}
}

// TestFlags checks the command-line surface: shared setting names are
// registered once, a family collects only its own settings, and a flag
// another family takes is rejected rather than silently ignored.
func TestFlags(t *testing.T) {
	parse := func(args ...string) func(string) (Family, Params, error) {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		resolve := Flags(fs, Family.Settings)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return resolve
	}

	resolve := parse("-nodes", "60", "-k", "3")
	f, p, err := resolve("twopaths")
	if err != nil {
		t.Fatal(err)
	}
	if f.Name != "twopaths" || p["nodes"] != 60 || p["k"] != 3 || p["edges"] != 1500 || len(p) != 3 {
		t.Errorf("twopaths params = %v", p)
	}

	resolve = parse("-side", "12")
	if _, _, err := resolve("triangle"); err == nil {
		t.Error("-side accepted for triangle")
	}
	resolve = parse("-bits", "70")
	if _, _, err := resolve("hamming"); err == nil {
		t.Error("-bits 70 accepted")
	}
}
