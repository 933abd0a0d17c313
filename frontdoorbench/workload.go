package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"

	"apichecker"
)

// poolApps is the number of distinct apps every workload draws from,
// about 80 of them malicious at the T-Market class mix.
const poolApps = 1024

// catalogueApps is the resubmit catalogue: popular apps whose records the
// gateway already holds when the window opens.
const catalogueApps = 384

// newEvery makes one resubmit upload in newEvery a new app version, so
// about 98% of requests join an existing record. With the catalogue,
// the records a 10 s window adds stay below the 4096-record registry up
// to about 23,000 requests per second, so no record is evicted.
const newEvery = 64

// poolSeed fixes the app population. Like the deployment, the apps a
// market sees are a given; --seed varies the uploads made of them: their
// order, popularity and bytes.
const poolSeed = 7

// trainApps sizes the training corpus of every deployment.
const trainApps = 2000

// Schedule supply per measured second. A run that uses its whole schedule
// fails rather than repeat an upload, so these sit about ten times above
// the rates the workloads reach on a 2-vCPU host.
const (
	distinctPerSecond = 8000
	repeatPerSecond   = 50000
)

// Nonce classes: the top bits of a variant's index say what it is for,
// so measured, catalogue and warm-up variants never share bytes.
const (
	catalogueVariant = 1 << 61
	warmVariant      = 1 << 62
)

// pool is the built archives of the app population, with each app's
// ground-truth label.
type pool struct {
	Archives  [][]byte
	Malicious []bool
}

// upload names one archive: a variant of a pool app.
type upload struct {
	App   int32
	Nonce uint64
}

// variant is the upload of app whose bytes are set by the run seed and
// an index unique within the run.
func variant(app int, seed int64, index uint64) upload {
	return upload{App: int32(app), Nonce: mix(uint64(seed)) ^ index}
}

// mix is the splitmix64 finalizer: a bijection, so a seed's nonces are
// distinct for distinct indices.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// payload returns the upload's archive bytes, appended to dst: the app's
// archive with the nonce as its zip comment. A zip ends with its
// end-of-central-directory record, whose last field is the comment
// length; the archives apk.Build writes carry no comment, so a variant is
// the archive minus that length field, then the new length and the
// comment. Every variant therefore has its own content digest and pays
// the whole serving path — registry record, journal append, decode,
// content-seeded emulation — while costing the generator only a copy.
func (p *pool) payload(dst []byte, u upload) []byte {
	base := p.Archives[u.App]
	var c [18]byte
	copy(c[:2], "fd")
	comment := hex.AppendEncode(c[:2], binary.BigEndian.AppendUint64(nil, u.Nonce))
	dst = append(dst, base[:len(base)-2]...)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(comment)))
	return append(dst, comment...)
}

// loadPool returns the app population, generating and caching it on
// first use. The cache sits in dir, keyed by a digest of this binary, so
// a rebuilt benchmark or program never reads another build's archives.
// Generation happens before any set-up, outside every timed window.
func loadPool(dir string) (*pool, error) {
	key, err := exeDigest()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("pool-%s.gob", key))
	if f, err := os.Open(path); err == nil {
		var p pool
		derr := gob.NewDecoder(f).Decode(&p)
		f.Close()
		if derr == nil && len(p.Archives) == poolApps && len(p.Malicious) == poolApps {
			return &p, nil
		}
	}
	p, err := buildPool()
	if err != nil {
		return nil, err
	}
	if err := writePool(path, p); err != nil {
		return nil, err
	}
	return p, nil
}

// buildPool generates poolApps labelled apps from the T-Market class mix
// over the deployment's paper-scale universe and builds their archives.
func buildPool() (*pool, error) {
	u, err := apichecker.PaperUniverse(deploymentSeed)
	if err != nil {
		return nil, fmt.Errorf("pool universe: %w", err)
	}
	c, err := apichecker.NewCorpus(u, poolApps, poolSeed)
	if err != nil {
		return nil, fmt.Errorf("pool corpus: %w", err)
	}
	p := &pool{Archives: make([][]byte, poolApps), Malicious: c.Labels()}
	const builders = 2
	errs := make([]error, builders)
	var wg sync.WaitGroup
	for w := 0; w < builders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < poolApps; i += builders {
				raw, err := apichecker.BuildAPK(c.Program(i), u)
				if err != nil {
					errs[w] = fmt.Errorf("pool app %d: %w", i, err)
					return
				}
				if !bytes.HasSuffix(raw, []byte{0, 0}) {
					errs[w] = fmt.Errorf("pool app %d: archive already carries a zip comment", i)
					return
				}
				// An exact-size copy, so a built pool holds the same heap
				// as one read back from the cache.
				p.Archives[i] = bytes.Clone(raw)
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return p, nil
}

// writePool stores a pool atomically (temp file, then rename).
func writePool(path string, p *pool) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "pool-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := gob.NewEncoder(tmp).Encode(p); err != nil {
		tmp.Close()
		return fmt.Errorf("write pool: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("write pool: %w", err)
	}
	return os.Rename(tmp.Name(), path)
}

// exeDigest is a short digest of the running binary.
func exeDigest() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

// workload is one traffic mix the benchmark drives through the front door.
type workload struct {
	name string
	// why records what the workload stresses (also in BENCHMARK.json).
	why string
	// cluster runs the deployment as a coordinator with local lanes off
	// and two in-process worker nodes.
	cluster bool
	// triage turns on the tier-1 static pre-screen with band [0.05, 0.95].
	triage bool
	// repeats draws Zipf-popular re-uploads of a catalogue uploaded
	// before the window, with one new version in newEvery; otherwise
	// every upload is a distinct variant.
	repeats bool
}

var workloads = []workload{
	{
		name: "fresh",
		why:  "every upload a distinct new app version on local lanes with triage off: prices decode, emulate, extract and infer",
	},
	{
		name:    "resubmit",
		why:     "Zipf-popular re-uploads of a catalogue the gateway already holds, one upload in 64 new: about 98% join a record, so gateway read, digest and lookup dominate",
		repeats: true,
	},
	{
		name:    "cluster-tiered",
		why:     "distinct uploads through a coordinator to two worker nodes with triage band [0.05, 0.95]: prices the claim/ack wire and tier-1 triage",
		cluster: true,
		triage:  true,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// schedule is the seeded request order for a run of the given length.
// Clients take uploads from it in order; a run never repeats an upload
// of a distinct workload.
func (w workload) schedule(seed int64, seconds int) []upload {
	rng := rand.New(rand.NewSource(seed))
	if w.repeats {
		// Popularity ranks map to catalogue apps through a seeded
		// permutation, so each seed has its own hot apps.
		// New versions walk the pool in seeded order, like fresh, so
		// every window sees about the same mix of apps.
		rank := rng.Perm(catalogueApps)
		zipf := rand.NewZipf(rng, 1.1, 1, catalogueApps-1)
		out := make([]upload, repeatPerSecond*seconds)
		var perm []int
		for i := range out {
			if n := i / newEvery; i%newEvery == newEvery-1 {
				if n%poolApps == 0 {
					perm = rng.Perm(poolApps)
				}
				out[i] = variant(perm[n%poolApps], seed, uint64(i))
			} else {
				out[i] = catalogueUpload(rank[zipf.Uint64()], seed)
			}
		}
		return out
	}
	out := make([]upload, distinctPerSecond*seconds)
	var perm []int
	for i := range out {
		if i%poolApps == 0 {
			perm = rng.Perm(poolApps)
		}
		out[i] = variant(perm[i%poolApps], seed, uint64(i))
	}
	return out
}

// catalogue is what a workload uploads before its window opens: for
// resubmit, the catalogue's archives. The catalogue is the pool's first
// catalogueApps apps (the pool is itself a random sample), so its
// ground truth is the same for every seed.
func (w workload) catalogue(seed int64) []upload {
	if !w.repeats {
		return nil
	}
	out := make([]upload, catalogueApps)
	for app := range out {
		out[app] = catalogueUpload(app, seed)
	}
	return out
}

// catalogueUpload is the one archive of app the resubmit catalogue holds.
func catalogueUpload(app int, seed int64) upload {
	return variant(app, seed, catalogueVariant|uint64(app))
}

// warmUploads are the set-up warm-up archives, distinct from every
// measured upload of the run.
func warmUploads(seed int64) []upload {
	out := make([]upload, 64)
	for i := range out {
		out[i] = variant(i%poolApps, seed, warmVariant|uint64(i))
	}
	return out
}
