package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"apichecker"
)

// maxReferenceChecks bounds the serial reference vets per run. Digests
// are uniform, so the answers with the smallest digests are a
// deterministic, unbiased sample.
const maxReferenceChecks = 1024

// verify re-vets a sample of the served answers serially on the
// reference checker, trained identically to the serving one, and
// requires every served verdict to equal the reference verdict for the
// same bytes, and every submission ID to be the bytes' content digest
// (hex sha256, the gateway's record key).
// It returns the number checked and the mismatches.
func verify(ref *apichecker.Checker, p *pool, answers map[upload]*answer) (int, []string, error) {
	type item struct {
		up upload
		a  *answer
	}
	items := make([]item, 0, len(answers))
	for up, a := range answers {
		items = append(items, item{up, a})
	}
	sort.Slice(items, func(i, j int) bool { return items[i].a.st.ID < items[j].a.st.ID })
	if len(items) > maxReferenceChecks {
		items = items[:maxReferenceChecks]
	}
	var bad []string
	for _, it := range items {
		raw := p.payload(nil, it.up)
		want, err := ref.Vet(context.Background(), apichecker.Submission{Raw: raw})
		if err != nil {
			return 0, nil, fmt.Errorf("reference vet of %v: %w", it.up, err)
		}
		sum := sha256.Sum256(raw)
		if id := hex.EncodeToString(sum[:]); id != it.a.st.ID {
			bad = append(bad, fmt.Sprintf("upload %v: submission id %.16s, want content digest %.16s", it.up, it.a.st.ID, id))
			continue
		}
		got, err := encodeVerdict(it.a.st.Verdict)
		if err != nil {
			return 0, nil, err
		}
		exp, err := encodeVerdict(want)
		if err != nil {
			return 0, nil, err
		}
		if !bytes.Equal(got, exp) {
			bad = append(bad, fmt.Sprintf("upload %v: served %s, reference %s", it.up, got, exp))
		}
	}
	return len(items), bad, nil
}

func encodeVerdict(v *apichecker.Verdict) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// quality scores the window's distinct answers against ground truth.
type quality struct {
	precision, recall, scanMean float64
}

func score(p *pool, answers map[upload]*answer) quality {
	var tp, fp, fn int
	var scan float64
	for up, a := range answers {
		truth, said := p.Malicious[up.App], a.st.Verdict.Malicious
		switch {
		case truth && said:
			tp++
		case said:
			fp++
		case truth:
			fn++
		}
		scan += a.st.Verdict.ScanTime.Seconds()
	}
	var q quality
	if tp+fp > 0 {
		q.precision = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		q.recall = float64(tp) / float64(tp+fn)
	}
	if len(answers) > 0 {
		q.scanMean = scan / float64(len(answers))
	}
	return q
}
