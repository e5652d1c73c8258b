package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"loopfrog/internal/cpu"
	"loopfrog/internal/serve"
	"loopfrog/internal/sim"
	"loopfrog/internal/tune"
)

func TestTrafficSequenceIsSeeded(t *testing.T) {
	a, b := trafficSequence(7), trafficSequence(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different job sequences")
	}
	if c := trafficSequence(8); reflect.DeepEqual(a[:blockNew+blockRepeat], c[:blockNew+blockRepeat]) {
		t.Fatal("seeds 7 and 8 gave the same first block")
	}
}

func TestTrafficSequenceShape(t *testing.T) {
	seq := trafficSequence(3)
	block := blockNew + blockRepeat
	if len(seq) == 0 || len(seq)%block != 0 {
		t.Fatalf("sequence of %d jobs is not whole blocks of %d", len(seq), block)
	}
	seen := make(map[trafficItem]bool) // new items, keyed with Index/First cleared
	for i, it := range seq {
		if i%block == 0 {
			repeats := 0
			for _, x := range seq[i : i+block] {
				if x.Repeat {
					repeats++
				}
			}
			if repeats != blockRepeat {
				t.Fatalf("block at %d has %d repeats, want %d", i, repeats, blockRepeat)
			}
		}
		key := it
		key.Index, key.First, key.Repeat = 0, 0, false
		if !it.Repeat {
			if it.First != it.Index {
				t.Fatalf("new job %d names first submission %d", i, it.First)
			}
			if seen[key] {
				t.Fatalf("job %d repeats a variant but is not marked a repeat", i)
			}
			seen[key] = true
			continue
		}
		if it.First >= i {
			t.Fatalf("repeat %d refers to job %d, not an earlier one", i, it.First)
		}
		first := seq[it.First]
		if first.Repeat || first.Kernel != it.Kernel || first.Variant != it.Variant {
			t.Fatalf("repeat %d does not match its first submission %+v", i, first)
		}
	}
}

// TestSequenceOutlastsARun checks a run cannot use the sequence up: 27000
// jobs are 225 jobs/s for the whole hardCap.
func TestSequenceOutlastsARun(t *testing.T) {
	if n := len(trafficSequence(5)); n < 27000 {
		t.Fatalf("sequence of %d jobs, want at least 27000", n)
	}
}

// TestVariantsHaveDistinctFingerprints checks no two variants of a kernel
// run the same (config, image): otherwise a "new" variant would be a
// run-cache hit, and checkAnswers would report the shared fingerprint.
func TestVariantsHaveDistinctFingerprints(t *testing.T) {
	seen := make(map[string]variant)
	for _, v := range variantSpace() {
		cfg := cpu.DefaultConfig()
		cfg.Threadlets = v.Threadlets
		tv := tune.Variant{PackFactor: v.PackFactor, GranuleBytes: v.GranuleBytes, PackTarget: v.PackTarget}
		// Deselect changes the image, the rest the configuration.
		key := fmt.Sprintf("%v|%+v", v.Deselect, sim.CanonicalConfig(tv.Config(cfg)))
		if w, dup := seen[key]; dup {
			t.Fatalf("variants %+v and %+v run the same configuration", v, w)
		}
		seen[key] = v
	}
}

func okAnswer(index, first int, fp, result, worker string) answer {
	return answer{
		item:   trafficItem{Index: index, First: first, Repeat: index != first},
		status: 200,
		view:   jobView{Fingerprint: fp, Status: serve.StatusDone, Result: json.RawMessage(result)},
		res:    jobResult{Worker: worker},
	}
}

func TestCheckAnswers(t *testing.T) {
	run := func(answers ...answer) (*result, *serveLayers) {
		res, lay := newResult(), &serveLayers{}
		refs := make(map[int]firstAnswer)
		for _, a := range answers {
			c, _ := canonical(a.view.Result)
			addReference(refs, a, c)
		}
		checkAnswers(res, lay, answers, refs)
		return res, lay
	}
	// A repeat answered before its first, from another worker, host time
	// aside identical: correct, one repeat, not affine.
	res, lay := run(okAnswer(3, 0, "aa", `{"cycles":5,"worker":"w1"}`, "w1"), okAnswer(0, 0, "aa", `{"cycles":5,"worker":"w0"}`, "w0"),
		okAnswer(1, 1, "bb", `{"cycles":7}`, "w0"))
	if len(res.checkErrs) != 0 || lay.repeats != 1 || lay.affine != 0 {
		t.Fatalf("good answers: errs %v, repeats %d, affine %d", res.checkErrs, lay.repeats, lay.affine)
	}
	for name, answers := range map[string][]answer{
		"repeat with another fingerprint": {okAnswer(0, 0, "aa", `{"cycles":5}`, "w0"), okAnswer(2, 0, "cc", `{"cycles":5}`, "w0")},
		"repeat with another result":      {okAnswer(0, 0, "aa", `{"cycles":5}`, "w0"), okAnswer(2, 0, "aa", `{"cycles":6}`, "w0")},
		"two specs, one fingerprint":      {okAnswer(0, 0, "aa", `{"cycles":5}`, "w0"), okAnswer(1, 1, "aa", `{"cycles":5}`, "w0")},
	} {
		if res, _ := run(answers...); len(res.checkErrs) != 1 {
			t.Errorf("%s: check errors %v, want one", name, res.checkErrs)
		}
	}
}

func TestRepeatsRenderTheSameRequest(t *testing.T) {
	srcs, err := serveSources()
	if err != nil {
		t.Fatal(err)
	}
	seq := trafficSequence(11)
	for _, it := range seq[:2*(blockNew+blockRepeat)] {
		if !it.Repeat {
			continue
		}
		a, _ := json.Marshal(it.jobSpec(11, srcs))
		b, _ := json.Marshal(seq[it.First].jobSpec(11, srcs))
		if !bytes.Equal(a, b) {
			t.Fatalf("repeat %d renders a different request than job %d", it.Index, it.First)
		}
	}
}

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		p    float64
		want int
	}{{0.5, 20}, {0.75, 40}, {0.9, 100}} {
		if got := minSamples(c.p); got != c.want {
			t.Errorf("minSamples(%g) = %d, want %d", c.p, got, c.want)
		}
	}
	var l latencies
	for i := 1; i <= 99; i++ {
		l.add(float64(i))
	}
	if _, err := l.percentile(0.9); err == nil {
		t.Fatal("p90 of 99 samples has 9 beyond it; want an error")
	}
	l.add(100)
	got, err := l.percentile(0.9)
	if err != nil || got != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", got, err)
	}
}

func TestFailedJobsMissTheLatencyLimit(t *testing.T) {
	var l latencies
	for i := 0; i < 90; i++ {
		l.add(1)
	}
	for i := 0; i < 10; i++ {
		l.fail()
	}
	if p90, _ := l.percentile(0.9); p90 != 1 {
		t.Fatalf("p90 with 10%% failures = %v, want 1", p90)
	}
	l.fail()
	if p90, _ := l.percentile(0.9); !math.IsInf(p90, 1) {
		t.Fatalf("p90 with more than 10%% failures = %v, want +Inf", p90)
	}
	if finite(math.Inf(1)) != math.MaxFloat64 {
		t.Fatal("an infinite percentile must still encode as a JSON number")
	}
}

func TestSelfTimeOfNestedSpans(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{id: 0, parent: -1, name: "perfbench.pass", start: 0, end: ms(100)},
		{id: 1, parent: 0, name: "cpu.new_machine", start: ms(10), end: ms(30)},
		{id: 2, parent: 0, name: "cpu.run", start: ms(20), end: ms(50)}, // overlaps span 1
		{id: 3, parent: 1, name: "mem.load_program", start: ms(15), end: ms(20)},
		{id: 4, parent: 0, name: "cpu.run", start: ms(90), end: ms(120)}, // runs past its parent
	}
	want := []time.Duration{ms(100 - 40 - 10), ms(15), ms(30), ms(5), ms(30)}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("self times = %v, want %v", got, want)
	}
	if got := selfByLayer(spans)["cpu"]; got != 75 {
		t.Fatalf("cpu layer self time = %vms, want 75ms", got)
	}
}

func TestChromeTraceNests(t *testing.T) {
	tr := newTracer()
	root := tr.begin(-1, 0, 0, "perfbench.pass")
	child := tr.begin(root, 0, 0, "cpu.run")
	tr.end(child)
	tr.end(root)
	path := filepath.Join(t.TempDir(), "t.json")
	if err := writeChrome(path, tr.snapshot()); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	var phases string
	for _, e := range doc.TraceEvents {
		phases += e.Ph
	}
	if phases != "MBBEE" {
		t.Fatalf("event phases %q, want MBBEE", phases)
	}
}

func TestCanonicalIgnoresHostTime(t *testing.T) {
	a, err := canonical(json.RawMessage(`{"cycles":5,"worker":"w0","effective_insts_per_sec":1.5,"tier1_insts_per_sec":2}`))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := canonical(json.RawMessage(`{"tier1_insts_per_sec":9,"worker":"w1","cycles":5,"effective_insts_per_sec":3}`))
	if a != b {
		t.Fatalf("results differing only in host time compare unequal: %s vs %s", a, b)
	}
	c, _ := canonical(json.RawMessage(`{"cycles":6}`))
	if a == c {
		t.Fatal("results with different cycles compare equal")
	}
}

// TestMetricsMatchBenchmarkJSON keeps BENCHMARK.json, which the benchmark
// is run against, in step with the metrics the program reports.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloadList {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, program runs %v", names, want)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end %+v, program reports %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer()) {
		t.Errorf("per_layer %+v, program reports %+v", doc.PerLayer, perLayer())
	}
}
