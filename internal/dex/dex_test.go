package dex

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func sample() *File {
	return &File{
		NativeLibs: []string{"lib/armeabi-v7a/libnative.so"},
		Classes: []Class{
			{
				Name:       "com.example.MainActivity",
				IsActivity: true,
				Methods: []Method{
					{Name: "onCreate", Calls: []CallSite{
						{Kind: CallDirect, Target: "android.app.Activity.findViewById"},
						{Kind: CallDirect, Target: "android.widget.TextView.setText"},
						{Kind: CallStartActivity, Target: "com.example.DetailActivity"},
					}},
					{Name: "onResume", Calls: []CallSite{
						{Kind: CallIntentSend, Target: "android.intent.action.VIEW"},
						{Kind: CallDirect, Target: "android.widget.TextView.setText"},
					}},
				},
			},
			{
				Name:       "com.example.DetailActivity",
				IsActivity: true,
				Methods: []Method{
					{Name: "onCreate", Calls: []CallSite{
						{Kind: CallReflection, Target: "obf$a1b2"},
						{Kind: CallLoadDex, Target: "assets/payload.dex"},
					}},
				},
			},
			{Name: "com.example.Helper", Methods: []Method{{Name: "run"}}},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := sample()
	data, err := f.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got, f) {
		t.Errorf("round trip mismatch:\ngot  %+v\nwant %+v", got, f)
	}
}

func TestDirectAPIRefs(t *testing.T) {
	got := sample().DirectAPIRefs()
	want := []string{"android.app.Activity.findViewById", "android.widget.TextView.setText"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("DirectAPIRefs = %v, want %v", got, want)
	}
}

func TestIntentActions(t *testing.T) {
	got := sample().IntentActions()
	want := []string{"android.intent.action.VIEW"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("IntentActions = %v, want %v", got, want)
	}
}

func TestReferencedActivities(t *testing.T) {
	got := sample().ReferencedActivities()
	want := []string{"com.example.DetailActivity"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ReferencedActivities = %v, want %v", got, want)
	}
}

func TestTraitDetectors(t *testing.T) {
	f := sample()
	if !f.UsesReflection() {
		t.Error("UsesReflection = false, want true")
	}
	if !f.LoadsDynamicCode() {
		t.Error("LoadsDynamicCode = false, want true")
	}
	if n := f.NumCallSites(); n != 7 {
		t.Errorf("NumCallSites = %d, want 7", n)
	}
	clean := &File{Classes: []Class{{Name: "a.B", Methods: []Method{{Name: "m"}}}}}
	if clean.UsesReflection() || clean.LoadsDynamicCode() {
		t.Error("clean file reports evasion traits")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	f := sample()
	data, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", append([]byte("notadexx"), data[8:]...)},
		{"truncated", data[:len(data)/2]},
		{"trailing garbage", append(append([]byte{}, data...), 0xFF)},
	}
	for _, tc := range cases {
		if _, err := Decode(tc.data); err == nil {
			t.Errorf("%s: Decode accepted corrupt input", tc.name)
		}
	}
}

func TestDecodeRejectsHugeCounts(t *testing.T) {
	// magic + string count claiming 2^31 entries.
	data := append(append([]byte{}, Magic[:]...), 0xFF, 0xFF, 0xFF, 0x7F)
	if _, err := Decode(data); err == nil {
		t.Error("Decode accepted absurd string count")
	}
}

func TestEncodeRejectsInvalidKind(t *testing.T) {
	f := &File{Classes: []Class{{Name: "x.Y", Methods: []Method{
		{Name: "m", Calls: []CallSite{{Kind: CallKind(99), Target: "t"}}},
	}}}}
	if _, err := f.Encode(); err == nil {
		t.Error("Encode accepted invalid call kind")
	}
}

func TestEmptyFileRoundTrip(t *testing.T) {
	data, err := (&File{}).Encode()
	if err != nil {
		t.Fatalf("Encode empty: %v", err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode empty: %v", err)
	}
	if len(got.Classes) != 0 || len(got.NativeLibs) != 0 {
		t.Errorf("empty round trip produced %+v", got)
	}
}

// Property: random well-formed files round-trip byte-exactly.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		file := randomFile(rng)
		data, err := file.Encode()
		if err != nil {
			return false
		}
		got, err := Decode(data)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, file)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func randomFile(rng *rand.Rand) *File {
	kinds := []CallKind{CallDirect, CallReflection, CallIntentSend, CallStartActivity, CallLoadDex}
	names := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	var f File
	for i := 0; i < rng.Intn(5); i++ {
		f.NativeLibs = append(f.NativeLibs, "lib/"+names[rng.Intn(len(names))]+".so")
	}
	for i := 0; i < 1+rng.Intn(6); i++ {
		c := Class{Name: "pkg." + names[rng.Intn(len(names))], IsActivity: rng.Intn(2) == 0}
		for j := 0; j < rng.Intn(4); j++ {
			m := Method{Name: names[rng.Intn(len(names))]}
			for k := 0; k < rng.Intn(6); k++ {
				m.Calls = append(m.Calls, CallSite{
					Kind:   kinds[rng.Intn(len(kinds))],
					Target: names[rng.Intn(len(names))],
				})
			}
			c.Methods = append(c.Methods, m)
		}
		f.Classes = append(f.Classes, c)
	}
	return &f
}

// TestDecodeAllocCeiling pins the slice-cursor decoder's allocation
// budget on sample(): the File, one pool string, the index table, the lib
// and class tables, three method tables and three non-empty call tables —
// 11, where the streaming decoder it replaced paid 92. A per-field
// allocation creeping back in (a scratch array escaping, a string copied
// per name, a table grown by append) breaks the ceiling.
func TestDecodeAllocCeiling(t *testing.T) {
	const ceiling = 11
	data, err := sample().Encode()
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Decode(data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Errorf("Decode(sample) = %v allocs, want <= %d", allocs, ceiling)
	}
}
