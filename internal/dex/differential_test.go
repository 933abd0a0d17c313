package dex_test

import (
	"archive/zip"
	"bytes"
	"io"
	"reflect"
	"testing"

	"apichecker/internal/apk"
	"apichecker/internal/behavior"
	"apichecker/internal/dex"
	"apichecker/internal/framework"
)

// archiveDex builds an APK for a generated program and returns the
// classes.dex entry exactly as the archive carries it.
func archiveDex(tb testing.TB, gen *behavior.Generator, u *framework.Universe, spec behavior.Spec) []byte {
	tb.Helper()
	data, err := apk.Build(gen.Generate(spec), u)
	if err != nil {
		tb.Fatal(err)
	}
	zr, err := zip.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		tb.Fatal(err)
	}
	for _, f := range zr.File {
		if f.Name != "classes.dex" {
			continue
		}
		rc, err := f.Open()
		if err != nil {
			tb.Fatal(err)
		}
		defer rc.Close()
		b, err := io.ReadAll(rc)
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	tb.Fatal("archive has no classes.dex")
	return nil
}

// FuzzDecodeMatchesReference checks the slice-cursor Decode against the
// streaming reference decoder it replaced: the same inputs are accepted
// and rejected, and accepted inputs decode to deeply equal values (nil
// versus empty tables included).
func FuzzDecodeMatchesReference(f *testing.F) {
	u := framework.MustGenerate(framework.TestConfig(3000))
	gen := behavior.NewGenerator(u)
	for i := 0; i < 4; i++ {
		spec := behavior.Spec{
			PackageName: "com.fuzz.dex", Version: 1, Seed: int64(40 + i),
			Label: behavior.Benign, Category: behavior.Category(i),
		}
		if i%2 == 1 {
			spec.Label, spec.Family = behavior.Malicious, behavior.Family(1+i)
		}
		raw := archiveDex(f, gen, u, spec)
		f.Add(raw)
		f.Add(raw[:len(raw)/3])
	}
	empty, err := (&dex.File{}).Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)
	f.Add([]byte{})
	f.Add(dex.Magic[:])
	f.Add(append(append([]byte{}, dex.Magic[:]...), 0xFF, 0xFF, 0xFF, 0xFF))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := dex.Decode(data)
		want, refErr := dex.ReferenceDecode(data)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("Decode err = %v, reference err = %v", err, refErr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("Decode and reference disagree:\ngot  %+v\nwant %+v", got, want)
		}
	})
}
