package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"apichecker"
)

// digests returns the content digest of each upload's payload.
func digests(p *pool, ups []upload) [][32]byte {
	out := make([][32]byte, len(ups))
	var buf []byte
	for i, u := range ups {
		buf = p.payload(buf[:0], u)
		out[i] = sha256.Sum256(buf)
	}
	return out
}

var (
	testPoolOnce sync.Once
	testPool     *pool
	testPoolErr  error
)

// mustPool builds the app population once per test binary.
func mustPool(t *testing.T) *pool {
	t.Helper()
	testPoolOnce.Do(func() { testPool, testPoolErr = buildPool() })
	if testPoolErr != nil {
		t.Fatal(testPoolErr)
	}
	return testPool
}

func TestSameSeedSameInputs(t *testing.T) {
	p := mustPool(t)
	again, err := buildPool()
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Archives {
		if !bytes.Equal(p.Archives[i], again.Archives[i]) || p.Malicious[i] != again.Malicious[i] {
			t.Fatalf("pool app %d differs between two builds", i)
		}
	}
	for _, w := range workloads {
		sa, sb := w.schedule(11, 1), w.schedule(11, 1)
		if !slices.Equal(sa, sb) {
			t.Fatalf("%s: schedule differs for the same seed", w.name)
		}
		if !slices.Equal(digests(p, sa[:2000]), digests(again, sb[:2000])) {
			t.Fatalf("%s: payload digests differ for the same seed", w.name)
		}
	}
}

func TestOtherSeedOtherInputs(t *testing.T) {
	p := mustPool(t)
	for _, w := range workloads {
		sa, sb := w.schedule(11, 1), w.schedule(12, 1)
		same := 0
		for i := range sa[:2000] {
			if sa[i].App == sb[i].App {
				same++
			}
		}
		if same > 1000 {
			t.Fatalf("%s: %d of 2000 requests name the same app for two seeds", w.name, same)
		}
		seen := make(map[[32]byte]bool)
		for _, d := range digests(p, sa[:2000]) {
			seen[d] = true
		}
		for i, d := range digests(p, sb[:2000]) {
			if seen[d] {
				t.Fatalf("%s: upload %d of seed 12 has the bytes of an upload of seed 11", w.name, i)
			}
		}
	}
}

func TestDistinctWorkloadsNeverRepeat(t *testing.T) {
	p := mustPool(t)
	seen := make(map[[32]byte]bool)
	for _, d := range digests(p, warmUploads(5)) {
		seen[d] = true
	}
	for _, name := range []string{"fresh", "cluster-tiered"} {
		w, _ := findWorkload(name)
		sched := w.schedule(5, 1)
		if len(sched) < distinctPerSecond {
			t.Fatalf("%s: schedule has %d uploads, want %d per second", name, len(sched), distinctPerSecond)
		}
		own := make(map[[32]byte]bool)
		for i, d := range digests(p, sched) {
			if own[d] || seen[d] {
				t.Fatalf("%s: upload %d repeats an earlier or warm-up archive", name, i)
			}
			own[d] = true
		}
	}
}

func TestVariantsAreValidArchives(t *testing.T) {
	p := mustPool(t)
	for _, u := range []upload{variant(0, 1, 0), variant(7, -3, 123456), variant(3, 5, warmVariant)} {
		got, err := apichecker.ParseAPK(p.payload(nil, u))
		if err != nil {
			t.Fatalf("variant %v: %v", u, err)
		}
		base, err := apichecker.ParseAPK(p.Archives[u.App])
		if err != nil {
			t.Fatal(err)
		}
		if got.PackageName() != base.PackageName() || got.SHA256 == base.SHA256 {
			t.Fatalf("variant %v: package %s digest %.12s, base %s %.12s",
				u, got.PackageName(), got.SHA256, base.PackageName(), base.SHA256)
		}
	}
}

// registryRecords is the gateway's default record-registry bound.
const registryRecords = 4096

func TestResubmitCatalogueBelowRegistry(t *testing.T) {
	w, _ := findWorkload("resubmit")
	catalogue := make(map[upload]bool)
	for _, u := range w.catalogue(9) {
		catalogue[u] = true
	}
	if len(catalogue) != catalogueApps || 8*catalogueApps > registryRecords {
		t.Fatalf("resubmit catalogue of %d apps is not well below the %d-record registry", len(catalogue), registryRecords)
	}
	sched := w.schedule(9, 10)
	added := make(map[upload]bool)
	for _, u := range sched {
		if !catalogue[u] {
			added[u] = true
		}
	}
	// Records a window of 10 s adds at twice the rate a 2-vCPU host
	// reaches (about 9,000 requests per second) must still fit.
	perRequest := float64(len(added)) / float64(len(sched))
	if grow := perRequest * 2 * 9000 * 10; float64(catalogueApps)+grow > registryRecords {
		t.Fatalf("a 10 s window would add %.0f records to the %d-app catalogue, past the %d-record registry",
			grow, catalogueApps, registryRecords)
	}
	if joined := 1 - perRequest; joined < 0.97 || joined > 0.99 {
		t.Fatalf("%.4f of resubmit requests join an existing record, want about 0.98", joined)
	}
}

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// benchmarkSpec is the part of BENCHMARK.json the command must honour.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestSpecMatchesCommand(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, command %s: %s", i, got, w.name, w.why)
		}
	}
	for _, c := range []struct {
		file []specMetric
		defs []def
	}{{spec.EndToEnd, endToEndDefs}, {spec.PerLayer, perLayerDefs}} {
		if len(c.file) != len(c.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the command defines %d", len(c.file), len(c.defs))
		}
		for i, d := range c.defs {
			if want := (specMetric{d.name, d.unit, d.better}); c.file[i] != want {
				t.Errorf("metric %d: BENCHMARK.json %+v, command %+v", i, c.file[i], want)
			}
		}
	}
}

// checkMetrics requires a run to report exactly the defined metrics,
// each in its unit.
func checkMetrics(t *testing.T, got map[string]metric, defs []def) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("reported %d metrics, want %d", len(got), len(defs))
	}
	for _, d := range defs {
		if g, ok := got[d.name]; !ok {
			t.Errorf("metric %s not reported", d.name)
		} else if g.Unit != d.unit {
			t.Errorf("metric %s reported in %s, want %s", d.name, g.Unit, d.unit)
		}
	}
}

// smallRun runs the command's whole flow on a small training corpus and
// a one-second window.
func smallRun(t *testing.T, workload string, trace bool) (*report, string) {
	t.Helper()
	dir := t.TempDir()
	rep, err := run(options{workload: workload, seed: 3, seconds: 1, trace: trace, work: dir, trainApps: 300})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.result.Correct || rep.result.Failed != 0 || rep.result.Attempted == 0 {
		t.Fatalf("run not correct: %+v\n%s", rep.result, strings.Join(rep.lines, "\n"))
	}
	return rep, dir
}

func TestEndToEndRun(t *testing.T) {
	if testing.Short() {
		t.Skip("deploys the serving stack")
	}
	rep, _ := smallRun(t, "resubmit", false)
	checkMetrics(t, rep.result.Metrics, endToEndDefs)
	for name, m := range rep.result.Metrics {
		if m.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
		}
	}
}

// TestStageTimesFitServiceTime runs traced windows and reads the written
// spans back: for every submission, the pipeline stages' self times add
// up to no more than its vetsvc.service span.
func TestStageTimesFitServiceTime(t *testing.T) {
	if testing.Short() {
		t.Skip("deploys the serving stack")
	}
	for _, wl := range []string{"fresh", "cluster-tiered"} {
		t.Run(wl, func(t *testing.T) {
			rep, dir := smallRun(t, wl, true)
			checkMetrics(t, rep.result.Metrics, perLayerDefs)
			spans, err := readSpans(filepath.Join(dir, "trace-"+wl+"-seed3.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			self := selfTimes(spans)
			stages := make(map[int64]int64)
			service := make(map[int64]int64)
			for i, s := range spans {
				switch {
				case strings.HasPrefix(s.Name, "pipeline."):
					if self[i] < 0 {
						t.Fatalf("sub %d: %s has negative self time %d", s.Sub, s.Name, self[i])
					}
					stages[s.Sub] += self[i]
				case s.Name == "vetsvc.service":
					service[s.Sub] = s.dur()
				}
			}
			if len(service) == 0 {
				t.Fatal("no vetsvc.service spans traced")
			}
			subs := make([]int64, 0, len(service))
			for sub := range service {
				subs = append(subs, sub)
			}
			sort.Slice(subs, func(i, j int) bool { return subs[i] < subs[j] })
			for _, sub := range subs {
				if stages[sub] == 0 {
					t.Fatalf("sub %d: no pipeline stages traced", sub)
				}
				if stages[sub] > service[sub] {
					t.Fatalf("sub %d: stage self times add up to %dns, more than its %dns service span",
						sub, stages[sub], service[sub])
				}
			}
		})
	}
}

// readSpans reads spans written by writeSpans.
func readSpans(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []span
	dec := json.NewDecoder(f)
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}
