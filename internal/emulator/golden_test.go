package emulator

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math"
	"testing"

	"apichecker/internal/behavior"
	"apichecker/internal/framework"
	"apichecker/internal/hook"
)

// runLogGolden is the sha256 of runLogDigest's stream over the golden
// corpus. Any change to it means a program's emulation consumed a
// different random draw, recorded a different parameter or landed on a
// different virtual time — every downstream verdict and seed could move.
const runLogGolden = "38d2c61a8dd6315ce1832042c42a20e085bab931e0a9c4082b4babd2a436fb04"

// TestRunLogGolden pins the emulator's observable output draw for draw:
// 64 corpus programs (benign categories and every malicious family) ×
// 2 Monkey seeds on the production engine (incompatible-app fallback,
// hardening callbacks) with a partial tracked set, so both intercepted
// and unintercepted invocations are exercised.
func TestRunLogGolden(t *testing.T) {
	var ids []framework.APIID
	for _, a := range testU.APIs() {
		if !a.Hidden && a.ID%3 != 0 {
			ids = append(ids, a.ID)
		}
	}
	e := New(LightweightEmulator, hook.MustNewRegistry(testU, ids))
	h := sha256.New()
	var fellBack, tampered, capped int
	for i := 0; i < 64; i++ {
		spec := behavior.Spec{
			PackageName: "com.golden.app", Version: 1, Seed: int64(1000 + i),
			Label: behavior.Benign, Category: behavior.Category(i % behavior.NumCategories),
		}
		if i%2 == 1 {
			spec.Label = behavior.Malicious
			spec.Family = behavior.Family(1 + (i/2)%int(behavior.FamilyLowProfile))
		}
		p := testGen.Generate(spec)
		// A few programs are bent to reach paths a generated corpus
		// rarely takes: the incompatible-app fallback, and APIs observed
		// often enough to hit the kept-parameter cap.
		switch i % 16 {
		case 11:
			p.CrashBias = 0.03
		case 7, 15:
			for j := 1; j < len(p.Activities); j++ {
				p.Activities[j].Direct = append(p.Activities[j].Direct, p.Activities[0].Direct...)
			}
		}
		for _, seed := range []int64{11, 12} {
			res, err := e.Run(p, mk(seed))
			if err != nil {
				t.Fatalf("program %d seed %d: %v", i, seed, err)
			}
			runLogDigest(h, res)
			if res.FellBack {
				fellBack++
			}
			for _, inv := range res.Log.Invocations() {
				if inv.Tampered {
					tampered++
				}
				if len(inv.Params) == 4 {
					capped++
				}
			}
		}
	}
	if fellBack == 0 || tampered == 0 || capped == 0 {
		t.Fatalf("golden corpus misses a path: fallback %d, tampered %d, param-capped %d",
			fellBack, tampered, capped)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != runLogGolden {
		t.Errorf("emulation output digest = %s, want %s", got, runLogGolden)
	}
}

// runLogDigest streams everything observable about one run into h.
func runLogDigest(h io.Writer, res *Result) {
	var b [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	s := func(v string) {
		u(uint64(len(v)))
		h.Write([]byte(v))
	}
	flag := func(v bool) {
		if v {
			u(1)
		} else {
			u(0)
		}
	}
	log := res.Log
	u(log.TotalInvocations)
	u(log.Intercepted)
	invs := log.Invocations()
	u(uint64(len(invs)))
	for _, inv := range invs {
		u(uint64(inv.API))
		u(inv.Count)
		flag(inv.Tampered)
		u(uint64(len(inv.Params)))
		for _, p := range inv.Params {
			s(p)
		}
	}
	intents := log.SentIntents()
	u(uint64(len(intents)))
	for _, id := range intents {
		u(uint64(id))
		u(log.IntentCount(id))
	}
	u(uint64(len(log.ReachedActivities)))
	for _, a := range log.ReachedActivities {
		s(a)
	}
	u(uint64(res.VirtualTime))
	u(uint64(res.Events))
	u(math.Float64bits(res.RAC))
	u(uint64(res.ReachedActivities))
	u(uint64(res.ReferencedActivities))
	u(uint64(res.Crashed))
	flag(res.Detected)
	flag(res.Suppressed)
	flag(res.FellBack)
	s(res.Profile)
}
