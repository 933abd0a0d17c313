// Package dex models the compiled code section of an APK (classes.dex):
// classes, methods, and the call sites static analysis can see.
//
// The model intentionally captures the three mechanisms the paper cares
// about (§4.5): direct framework-API calls (visible to static analysis and
// to the runtime hook), Java-reflection calls (the target name is an
// opaque runtime-computed string, so static analysis cannot resolve it),
// and intent sends (IPC requests that make *another* process act). It also
// records dynamic code loading, which hides entire call graphs from static
// analysis.
//
// The binary codec is a simple length-prefixed format with a string pool,
// in the spirit of the real DEX layout, built on encoding/binary.
package dex

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Magic identifies the serialized form ("godex" + version).
var Magic = [8]byte{'g', 'o', 'd', 'e', 'x', '0', '3', '5'}

// CallKind distinguishes the mechanisms by which app code triggers
// framework behaviour.
type CallKind uint8

const (
	// CallDirect is an ordinary framework API invocation; static
	// analysis sees the target name.
	CallDirect CallKind = iota
	// CallReflection invokes a method via java.lang.reflect; the Target
	// is an obfuscated token, not the real API name.
	CallReflection
	// CallIntentSend passes an Intent to the system (startActivity,
	// sendBroadcast, ...); Target is the intent action.
	CallIntentSend
	// CallStartActivity references another activity class in this app;
	// Target is the activity class name. These references define which
	// declared activities are "actually referenced" (§4.2's RAC
	// denominator).
	CallStartActivity
	// CallLoadDex loads a secondary dex payload at runtime; Target is
	// the asset path. The payload's call sites are invisible statically.
	CallLoadDex
)

func (k CallKind) String() string {
	switch k {
	case CallDirect:
		return "direct"
	case CallReflection:
		return "reflection"
	case CallIntentSend:
		return "intent-send"
	case CallStartActivity:
		return "start-activity"
	case CallLoadDex:
		return "load-dex"
	}
	return fmt.Sprintf("CallKind(%d)", uint8(k))
}

// CallSite is one call instruction in a method body.
type CallSite struct {
	Kind   CallKind
	Target string
}

// Method is one method of a class.
type Method struct {
	Name  string
	Calls []CallSite
}

// Class is one class in the dex. Activity classes model Android
// activities; their names match the manifest's declared activities.
type Class struct {
	Name       string
	IsActivity bool
	Methods    []Method
}

// File is a parsed classes.dex.
type File struct {
	Classes    []Class
	NativeLibs []string // bundled .so names, e.g. "lib/armeabi-v7a/libcore.so"
}

// DirectAPIRefs returns the distinct framework API names reachable by
// static inspection (CallDirect sites only), in first-seen order. This is
// what static baseline detectors (Drebin/DroidAPIMiner style) extract.
func (f *File) DirectAPIRefs() []string {
	var out []string
	seen := make(map[string]bool)
	f.eachCall(func(cs CallSite) {
		if cs.Kind == CallDirect && !seen[cs.Target] {
			seen[cs.Target] = true
			out = append(out, cs.Target)
		}
	})
	return out
}

// IntentActions returns the distinct intent actions appearing at
// CallIntentSend sites.
func (f *File) IntentActions() []string {
	var out []string
	seen := make(map[string]bool)
	f.eachCall(func(cs CallSite) {
		if cs.Kind == CallIntentSend && !seen[cs.Target] {
			seen[cs.Target] = true
			out = append(out, cs.Target)
		}
	})
	return out
}

// ReferencedActivities returns the activity class names referenced from
// code (CallStartActivity targets), deduplicated, in first-seen order.
func (f *File) ReferencedActivities() []string {
	var out []string
	seen := make(map[string]bool)
	f.eachCall(func(cs CallSite) {
		if cs.Kind == CallStartActivity && !seen[cs.Target] {
			seen[cs.Target] = true
			out = append(out, cs.Target)
		}
	})
	return out
}

// UsesReflection reports whether any reflection call site exists.
func (f *File) UsesReflection() bool {
	found := false
	f.eachCall(func(cs CallSite) {
		if cs.Kind == CallReflection {
			found = true
		}
	})
	return found
}

// LoadsDynamicCode reports whether any dynamic-code-loading site exists.
func (f *File) LoadsDynamicCode() bool {
	found := false
	f.eachCall(func(cs CallSite) {
		if cs.Kind == CallLoadDex {
			found = true
		}
	})
	return found
}

func (f *File) eachCall(fn func(CallSite)) {
	for ci := range f.Classes {
		for mi := range f.Classes[ci].Methods {
			for _, cs := range f.Classes[ci].Methods[mi].Calls {
				fn(cs)
			}
		}
	}
}

// NumCallSites returns the total number of call sites.
func (f *File) NumCallSites() int {
	n := 0
	f.eachCall(func(CallSite) { n++ })
	return n
}

// --- binary codec ---

// Encode serializes the file. The layout is:
//
//	magic [8]byte
//	stringPool: u32 count, then per string u32 len + bytes
//	nativeLibs: u32 count, then u32 string indexes
//	classes:    u32 count, then per class:
//	    u32 name index, u8 isActivity, u32 method count, per method:
//	        u32 name index, u32 call count, per call: u8 kind, u32 target index
func (f *File) Encode() ([]byte, error) {
	pool := newStringPool()
	for _, lib := range f.NativeLibs {
		pool.intern(lib)
	}
	for _, c := range f.Classes {
		pool.intern(c.Name)
		for _, m := range c.Methods {
			pool.intern(m.Name)
			for _, cs := range m.Calls {
				if cs.Kind > CallLoadDex {
					return nil, fmt.Errorf("dex: encode: invalid call kind %d", cs.Kind)
				}
				pool.intern(cs.Target)
			}
		}
	}
	if len(pool.strings) > math.MaxUint32 {
		return nil, errors.New("dex: encode: string pool overflow")
	}

	var buf bytes.Buffer
	buf.Write(Magic[:])
	w := func(v uint32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		buf.Write(b[:])
	}
	w(uint32(len(pool.strings)))
	for _, s := range pool.strings {
		w(uint32(len(s)))
		buf.WriteString(s)
	}
	w(uint32(len(f.NativeLibs)))
	for _, lib := range f.NativeLibs {
		w(pool.index[lib])
	}
	w(uint32(len(f.Classes)))
	for _, c := range f.Classes {
		w(pool.index[c.Name])
		if c.IsActivity {
			buf.WriteByte(1)
		} else {
			buf.WriteByte(0)
		}
		w(uint32(len(c.Methods)))
		for _, m := range c.Methods {
			w(pool.index[m.Name])
			w(uint32(len(m.Calls)))
			for _, cs := range m.Calls {
				buf.WriteByte(byte(cs.Kind))
				w(pool.index[cs.Target])
			}
		}
	}
	return buf.Bytes(), nil
}

// maxReasonableCount bounds table sizes while decoding untrusted input.
const maxReasonableCount = 1 << 24

// Minimum encoded sizes of the variable-length records. Tables are
// presized to min(count, remaining/minSize): never more records than the
// rest of the input could hold, whatever count the header declares.
const (
	minLibSize    = 4         // string index
	minClassSize  = 4 + 1 + 4 // name index, activity flag, method count
	minMethodSize = 4 + 4     // name index, call count
	minCallSize   = 1 + 4     // kind, target index
)

// Decode parses a serialized dex file. It walks data with a bounds-checked
// cursor and copies the string pool once into a single string that every
// decoded name sub-slices, so the result never aliases data.
func Decode(data []byte) (*File, error) {
	r := &reader{data: data}
	if magic := r.next(len(Magic)); r.err == nil && string(magic) != string(Magic[:]) {
		return nil, fmt.Errorf("dex: decode: bad magic %q", magic)
	}

	nStrings := r.u32()
	if r.err == nil && nStrings > maxReasonableCount {
		return nil, fmt.Errorf("dex: decode: string pool count %d too large", nStrings)
	}
	// The pool region is a u32 length plus bytes per string: validate its
	// layout, copy it whole, then cut each string out of the copy.
	poolStart := r.off
	for i := uint32(0); i < nStrings && r.err == nil; i++ {
		n := r.u32()
		if r.err == nil && n > maxReasonableCount {
			return nil, fmt.Errorf("dex: decode: string length %d too large", n)
		}
		r.next(int(n))
	}
	if r.err != nil {
		return nil, r.err
	}
	pool := string(data[poolStart:r.off])
	r.strs = make([]string, nStrings)
	for i, off := 0, 0; i < len(r.strs); i++ {
		n := int(binary.LittleEndian.Uint32(data[poolStart+off:]))
		r.strs[i] = pool[off+4 : off+4+n]
		off += 4 + n
	}

	var f File
	nLibs := r.u32()
	if r.err == nil && nLibs > maxReasonableCount {
		return nil, fmt.Errorf("dex: decode: native lib count %d too large", nLibs)
	}
	f.NativeLibs = presize[string](r, nLibs, minLibSize)
	for i := uint32(0); i < nLibs && r.err == nil; i++ {
		f.NativeLibs = append(f.NativeLibs, r.str())
	}

	nClasses := r.u32()
	if r.err == nil && nClasses > maxReasonableCount {
		return nil, fmt.Errorf("dex: decode: class count %d too large", nClasses)
	}
	f.Classes = presize[Class](r, nClasses, minClassSize)
	for i := uint32(0); i < nClasses && r.err == nil; i++ {
		var c Class
		c.Name = r.str()
		c.IsActivity = r.u8() == 1
		nMethods := r.u32()
		if r.err == nil && nMethods > maxReasonableCount {
			return nil, fmt.Errorf("dex: decode: method count %d too large", nMethods)
		}
		c.Methods = presize[Method](r, nMethods, minMethodSize)
		for j := uint32(0); j < nMethods && r.err == nil; j++ {
			var m Method
			m.Name = r.str()
			nCalls := r.u32()
			if r.err == nil && nCalls > maxReasonableCount {
				return nil, fmt.Errorf("dex: decode: call count %d too large", nCalls)
			}
			m.Calls = presize[CallSite](r, nCalls, minCallSize)
			for k := uint32(0); k < nCalls && r.err == nil; k++ {
				kind := CallKind(r.u8())
				if r.err == nil && kind > CallLoadDex {
					return nil, fmt.Errorf("dex: decode: invalid call kind %d", kind)
				}
				m.Calls = append(m.Calls, CallSite{Kind: kind, Target: r.str()})
			}
			c.Methods = append(c.Methods, m)
		}
		f.Classes = append(f.Classes, c)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(data) {
		return nil, errors.New("dex: decode: trailing data")
	}
	return &f, nil
}

// reader is a bounds-checked cursor over the encoded bytes. The first
// failure sticks in err and turns every later read into a no-op.
type reader struct {
	data []byte
	off  int
	strs []string // the decoded string pool, for index lookups
	err  error
}

// next returns the following n bytes, or nil once the input is exhausted.
func (r *reader) next(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.data)-r.off {
		cause := io.ErrUnexpectedEOF
		if r.off == len(r.data) {
			cause = io.EOF
		}
		r.err = fmt.Errorf("dex: decode: truncated input: %w", cause)
		return nil
	}
	b := r.data[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

func (r *reader) u32() uint32 {
	b := r.next(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) u8() uint8 {
	b := r.next(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// str reads a u32 string index and resolves it against the pool.
func (r *reader) str() string {
	idx := r.u32()
	if r.err != nil {
		return ""
	}
	if int(idx) >= len(r.strs) {
		r.err = fmt.Errorf("dex: decode: string index %d out of range (%d strings)", idx, len(r.strs))
		return ""
	}
	return r.strs[idx]
}

// presize allocates a table for count records of at least minSize bytes
// each, capped by what the unread input could hold. An empty table stays
// nil, as appending to nil would leave it.
func presize[T any](r *reader, count uint32, minSize int) []T {
	if count == 0 || r.err != nil {
		return nil
	}
	return make([]T, 0, min(int(count), (len(r.data)-r.off)/minSize))
}

type stringPool struct {
	strings []string
	index   map[string]uint32
}

func newStringPool() *stringPool {
	return &stringPool{index: make(map[string]uint32)}
}

func (p *stringPool) intern(s string) uint32 {
	if i, ok := p.index[s]; ok {
		return i
	}
	i := uint32(len(p.strings))
	p.strings = append(p.strings, s)
	p.index[s] = i
	return i
}
