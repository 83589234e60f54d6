package engine

import (
	"slices"
	"testing"
)

// TestPresetPassLists pins the exact pass sequence of every named
// preset. The widened twins must stay in lockstep with their base
// scripts — resyn5 and resyn-x are resyn with the trailing/greedy
// passes swapped, never an independently drifting script.
func TestPresetPassLists(t *testing.T) {
	want := map[string][]string{
		"resyn":   {"TF", "depthopt", "BF", "TFD"},
		"resyn5":  {"TF", "depthopt", "BF", "TFD", "TF5"},
		"resyn-x": {"TFx", "depthopt", "BF", "TFD", "TF5x"},
		"size":    {"BF"},
		"size5":   {"BF", "TF5"},
		"depth":   {"depthopt", "TD"},
		"depth-x": {"depthopt", "Txd", "TD"},
		"quick":   {"TF"},
	}
	for name, passes := range want {
		p, err := Preset(name)
		if err != nil {
			t.Errorf("Preset(%q): %v", name, err)
			continue
		}
		var got []string
		for _, pass := range p.Passes {
			got = append(got, pass.Name())
		}
		if len(got) != len(passes) {
			t.Errorf("%s runs %v, want %v", name, got, passes)
			continue
		}
		for i := range got {
			if got[i] != passes[i] {
				t.Errorf("%s runs %v, want %v", name, got, passes)
				break
			}
		}
	}
}

// TestPresetNamesResolveUnchanged pins the scripts listing: the eight
// presets, depthopt and the 25 names of the pass grammar. Every name the
// listing carried before the grammar existed still runs the pass list it
// ran then, and every pass a script runs is named by the grammar, so its
// reported name can be fed back to PassByName.
func TestPresetNamesResolveUnchanged(t *testing.T) {
	want := map[string][]string{
		"BF": {"BF"}, "T": {"T"}, "T5": {"T5"}, "T5x": {"T5x"},
		"TD": {"TD"}, "TD5": {"TD5"}, "TF": {"TF"}, "TF5": {"TF5"},
		"TF5x": {"TF5x"}, "TFD": {"TFD"}, "TFD5": {"TFD5"}, "TFx": {"TFx"},
		"Tx": {"Tx"}, "Txd": {"Txd"},
		"depth":    {"depthopt", "TD"},
		"depth-x":  {"depthopt", "Txd", "TD"},
		"depthopt": {"depthopt"},
		"quick":    {"TF"},
		"resyn":    {"TF", "depthopt", "BF", "TFD"},
		"resyn-x":  {"TFx", "depthopt", "BF", "TFD", "TF5x"},
		"resyn5":   {"TF", "depthopt", "BF", "TFD", "TF5"},
		"size":     {"BF"},
		"size5":    {"BF", "TF5"},
	}
	names := PresetNames()
	if len(names) != 34 {
		t.Errorf("PresetNames lists %d names, want 34: %v", len(names), names)
	}
	listed := map[string]bool{}
	for _, name := range names {
		listed[name] = true
		p, err := Preset(name)
		if err != nil {
			t.Errorf("Preset(%q): %v", name, err)
			continue
		}
		var got []string
		for _, pass := range p.Passes {
			got = append(got, pass.Name())
			if q, ok := PassByName(pass.Name()); !ok || q.Name() != pass.Name() {
				t.Errorf("%s runs pass %q, which PassByName does not resolve", name, pass.Name())
			}
		}
		if passes, ok := want[name]; ok && !slices.Equal(got, passes) {
			t.Errorf("%s runs %v, want %v", name, got, passes)
		}
	}
	for name := range want {
		if !listed[name] {
			t.Errorf("PresetNames dropped %q", name)
		}
	}
}

// TestPresetReturnsFreshPasses: a caller editing one Preset's pass list
// must not change the next caller's script.
func TestPresetReturnsFreshPasses(t *testing.T) {
	p, err := Preset("resyn")
	if err != nil {
		t.Fatal(err)
	}
	p.Passes[0], _ = PassByName("BF")
	q, _ := Preset("resyn")
	if q.Passes[0].Name() != "TF" {
		t.Fatalf("editing one resyn pipeline changed the next: first pass %q", q.Passes[0].Name())
	}
}
