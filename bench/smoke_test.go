package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSmokeQuick runs every workload at tiny sizes, untraced and traced,
// so the benchmark and its correctness checks keep working. Each run must
// stay within a few seconds.
func TestSmokeQuick(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/trace=%d", w.name, traced), func(t *testing.T) {
				start := time.Now()
				spans := filepath.Join(buildDir(), "spans", w.name+"-seed1.jsonl")
				os.Remove(spans)
				res, code, stdout := runQuick(t, w.name, traced)
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("exit %d, result %+v\n%s", code, res, stdout)
				}
				want := endToEnd
				if traced == 1 {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.name)
					case got.Unit != m.unit:
						t.Errorf("metric %s unit %q, want %q", m.name, got.Unit, m.unit)
					}
				}
				if traced == 0 {
					for _, m := range endToEnd {
						if !(res.Metrics[m.name].Value > 0) {
							t.Errorf("end-to-end metric %s = %g, want > 0", m.name, res.Metrics[m.name].Value)
						}
					}
				} else if _, err := os.Stat(spans); err != nil {
					t.Errorf("no span file: %v", err)
				}
				if !strings.Contains(stdout, `{"env":`) {
					t.Error("no env header line")
				}
				if d := time.Since(start); d > 6*time.Second {
					t.Errorf("quick run took %v", d)
				}
			})
		}
	}
}

// TestSmokeWrongGSAReferenceFails perturbs the reference indices of the
// first quick study and expects the run to fail its correctness check.
func TestSmokeWrongGSAReferenceFails(t *testing.T) {
	seed := derive(1, 0x677361, 0)
	bad := [][]float64{}
	for r := 0; r < gsaQuick.replicates; r++ {
		bad = append(bad, []float64{0.9, 0.9, 0.9, 0.9, 0.9})
	}
	b, err := json.Marshal(map[string][][]float64{gsaRefKey(gsaQuick, seed): bad})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ref.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	res, code, stdout := runQuick(t, "gsa-interleaved", 0, "-gsa-ref", path)
	if code == 0 || res.Correct {
		t.Fatalf("a wrong reference passed: exit %d, result %+v\n%s", code, res, stdout)
	}
}

func runQuick(t *testing.T, name string, traced int, extra ...string) (result, int, string) {
	t.Helper()
	var out bytes.Buffer
	// A run always completes one campaign or pair of studies, so a tiny
	// measured time keeps every quick run to one.
	args := append([]string{"-workload", name, "-seed", "1", "-seconds", "0.05", "-quick", "-trace", fmt.Sprint(traced)}, extra...)
	code := run(args, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last stdout line is not a result: %v\n%s", err, out.String())
	}
	return res, code, out.String()
}
