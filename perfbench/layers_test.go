package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONListsMetrics checks that BENCHMARK.json declares
// exactly the metrics the runs report, in the same order, with the same
// units.
func TestBenchmarkJSONListsMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var doc struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []entry, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the runs report %d", kind, len(got), len(want))
		}
		for i, w := range want {
			if got[i].Name != w.name || got[i].Unit != w.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the runs report %s (%s)", kind, i, got[i].Name, got[i].Unit, w.name, w.unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}
