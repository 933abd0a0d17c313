package hook

import (
	"testing"

	"apichecker/internal/framework"
)

var testU = framework.MustGenerate(framework.TestConfig(3000))

func someVisible(n int) []framework.APIID {
	var out []framework.APIID
	for _, a := range testU.APIs() {
		if !a.Hidden {
			out = append(out, a.ID)
			if len(out) == n {
				break
			}
		}
	}
	return out
}

func TestNewRegistry(t *testing.T) {
	ids := someVisible(10)
	r, err := NewRegistry(testU, ids)
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != 10 {
		t.Errorf("Size = %d, want 10", r.Size())
	}
	for _, id := range ids {
		if !r.Tracks(id) {
			t.Errorf("Tracks(%d) = false", id)
		}
	}
	if r.Tracks(ids[len(ids)-1] + 1000) {
		t.Error("Tracks reports untracked API")
	}
	// Duplicates collapse.
	r2, err := NewRegistry(testU, append(ids, ids...))
	if err != nil {
		t.Fatal(err)
	}
	if r2.Size() != 10 {
		t.Errorf("duplicate ids not collapsed: %d", r2.Size())
	}
	// Tracked list is sorted.
	list := r.TrackedAPIs()
	for i := 1; i < len(list); i++ {
		if list[i] <= list[i-1] {
			t.Fatal("TrackedAPIs not sorted")
		}
	}
}

func TestNewRegistryRejectsHiddenAndBogus(t *testing.T) {
	hidden := testU.HiddenAPIs()
	if len(hidden) == 0 {
		t.Fatal("universe has no hidden APIs")
	}
	if _, err := NewRegistry(testU, hidden[:1]); err == nil {
		t.Error("registry accepted a hidden API")
	}
	if _, err := NewRegistry(testU, []framework.APIID{-5}); err == nil {
		t.Error("registry accepted a negative id")
	}
	if _, err := NewRegistry(testU, []framework.APIID{framework.APIID(testU.NumAPIs())}); err == nil {
		t.Error("registry accepted an out-of-range id")
	}
}

func TestLogObserve(t *testing.T) {
	ids := someVisible(5)
	r := MustNewRegistry(testU, ids[:3])
	l := NewLog(r)

	l.Observe(ids[0], 10, "p1")
	l.Observe(ids[0], 5, "p2")
	l.Observe(ids[1], 1)
	l.Observe(ids[4], 100) // untracked
	l.Observe(ids[2], 0)   // zero count: ignored

	if l.TotalInvocations != 116 {
		t.Errorf("TotalInvocations = %d, want 116", l.TotalInvocations)
	}
	if l.Intercepted != 16 {
		t.Errorf("Intercepted = %d, want 16", l.Intercepted)
	}
	if l.DistinctInvoked() != 2 {
		t.Errorf("DistinctInvoked = %d, want 2", l.DistinctInvoked())
	}
	inv := l.Invocation(ids[0])
	if inv == nil || inv.Count != 15 || len(inv.Params) != 2 {
		t.Errorf("Invocation(%d) = %+v", ids[0], inv)
	}
	if l.Invocation(ids[4]) != nil {
		t.Error("untracked API has an invocation record")
	}
	got := l.InvokedAPIs()
	if len(got) != 2 || got[0] != ids[0] || got[1] != ids[1] {
		t.Errorf("InvokedAPIs = %v", got)
	}
}

func TestParamSamplingCap(t *testing.T) {
	ids := someVisible(1)
	r := MustNewRegistry(testU, ids)
	l := NewLog(r)
	for i := 0; i < 50; i++ {
		l.Observe(ids[0], 1, "p")
	}
	if n := len(l.Invocation(ids[0]).Params); n > 8 {
		t.Errorf("params grew unbounded: %d", n)
	}
}

// TestKeepsParamMatchesObserve checks KeepsParam against what Observe
// actually retains — untracked APIs, the kept-sample cap, and a sealed
// log's map lookup alike.
func TestKeepsParamMatchesObserve(t *testing.T) {
	ids := someVisible(3)
	l := NewLog(MustNewRegistry(testU, ids[:2]))
	untracked := ids[2]
	check := func(id framework.APIID) {
		t.Helper()
		before := 0
		if inv := l.Invocation(id); inv != nil {
			before = len(inv.Params)
		}
		keeps := l.KeepsParam(id)
		l.Observe(id, 1, "p")
		after := 0
		if inv := l.Invocation(id); inv != nil {
			after = len(inv.Params)
		}
		if kept := after > before; kept != keeps {
			t.Fatalf("API %d: KeepsParam = %v, Observe kept = %v", id, keeps, kept)
		}
	}
	for i := 0; i < 6; i++ {
		check(ids[0])
		check(untracked)
	}
	if l.KeepsParam(ids[0]) {
		t.Errorf("KeepsParam true after %d samples kept", maxParams)
	}
	l.Seal()
	for i := 0; i < 6; i++ {
		check(ids[1])
		check(ids[0])
	}
}

func TestCallbacks(t *testing.T) {
	ids := someVisible(2)
	r := MustNewRegistry(testU, ids[:1])
	called := 0
	if err := r.OnInvoke(ids[0], func(inv *Invocation) {
		called++
		inv.Tampered = true
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.OnInvoke(ids[1], func(*Invocation) {}); err == nil {
		t.Error("OnInvoke accepted untracked API")
	}
	l := NewLog(r)
	l.Observe(ids[0], 3)
	l.Observe(ids[0], 2)
	if called != 2 {
		t.Errorf("callback called %d times, want 2", called)
	}
	if !l.Invocation(ids[0]).Tampered {
		t.Error("callback tampering lost")
	}
}

func TestObserveIntent(t *testing.T) {
	r := MustNewRegistry(testU, nil)
	l := NewLog(r)
	l.ObserveIntent(3, 2)
	l.ObserveIntent(1, 1)
	l.ObserveIntent(3, 1)
	l.ObserveIntent(9, 0) // ignored
	got := l.SentIntents()
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("SentIntents = %v", got)
	}
	if l.IntentCount(3) != 3 {
		t.Errorf("IntentCount(3) = %d", l.IntentCount(3))
	}
	// Intent observation costs no hook overhead.
	if l.Intercepted != 0 || l.TotalInvocations != 0 {
		t.Error("intent observation affected API accounting")
	}
}

func TestObserveActivity(t *testing.T) {
	r := MustNewRegistry(testU, nil)
	l := NewLog(r)
	l.ObserveActivity("a.Main")
	l.ObserveActivity("a.Detail")
	if len(l.ReachedActivities) != 2 {
		t.Errorf("ReachedActivities = %v", l.ReachedActivities)
	}
}
