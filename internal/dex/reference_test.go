package dex

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// referenceDecode is the straightforward streaming decoder (a bufio.Reader
// over the input, one io.ReadFull per field, strings copied one by one)
// that Decode's slice cursor replaced. It stays as the oracle for
// FuzzDecodeMatchesReference: both must accept and reject the same inputs
// and agree on every accepted value.
func referenceDecode(data []byte) (*File, error) {
	r := &refReader{br: bufio.NewReader(bytes.NewReader(data))}
	var magic [8]byte
	r.bytes(magic[:])
	if r.err == nil && magic != Magic {
		return nil, fmt.Errorf("dex: decode: bad magic %q", magic[:])
	}

	nStrings := r.u32()
	if r.err == nil && nStrings > maxReasonableCount {
		return nil, fmt.Errorf("dex: decode: string pool count %d too large", nStrings)
	}
	strs := make([]string, 0, min(int(nStrings), 4096))
	for i := uint32(0); i < nStrings && r.err == nil; i++ {
		n := r.u32()
		if r.err == nil && n > maxReasonableCount {
			return nil, fmt.Errorf("dex: decode: string length %d too large", n)
		}
		b := make([]byte, n)
		r.bytes(b)
		strs = append(strs, string(b))
	}
	str := func(idx uint32) string {
		if r.err != nil {
			return ""
		}
		if int(idx) >= len(strs) {
			r.err = fmt.Errorf("dex: decode: string index %d out of range (%d strings)", idx, len(strs))
			return ""
		}
		return strs[idx]
	}

	var f File
	nLibs := r.u32()
	if r.err == nil && nLibs > maxReasonableCount {
		return nil, fmt.Errorf("dex: decode: native lib count %d too large", nLibs)
	}
	for i := uint32(0); i < nLibs && r.err == nil; i++ {
		f.NativeLibs = append(f.NativeLibs, str(r.u32()))
	}

	nClasses := r.u32()
	if r.err == nil && nClasses > maxReasonableCount {
		return nil, fmt.Errorf("dex: decode: class count %d too large", nClasses)
	}
	for i := uint32(0); i < nClasses && r.err == nil; i++ {
		var c Class
		c.Name = str(r.u32())
		c.IsActivity = r.u8() == 1
		nMethods := r.u32()
		if r.err == nil && nMethods > maxReasonableCount {
			return nil, fmt.Errorf("dex: decode: method count %d too large", nMethods)
		}
		for j := uint32(0); j < nMethods && r.err == nil; j++ {
			var m Method
			m.Name = str(r.u32())
			nCalls := r.u32()
			if r.err == nil && nCalls > maxReasonableCount {
				return nil, fmt.Errorf("dex: decode: call count %d too large", nCalls)
			}
			for k := uint32(0); k < nCalls && r.err == nil; k++ {
				kind := CallKind(r.u8())
				if r.err == nil && kind > CallLoadDex {
					return nil, fmt.Errorf("dex: decode: invalid call kind %d", kind)
				}
				m.Calls = append(m.Calls, CallSite{Kind: kind, Target: str(r.u32())})
			}
			c.Methods = append(c.Methods, m)
		}
		f.Classes = append(f.Classes, c)
	}
	if r.err != nil {
		return nil, r.err
	}
	if _, err := r.br.ReadByte(); err != io.EOF {
		return nil, errors.New("dex: decode: trailing data")
	}
	return &f, nil
}

type refReader struct {
	br  *bufio.Reader
	err error
}

func (r *refReader) bytes(b []byte) {
	if r.err != nil {
		return
	}
	if _, err := io.ReadFull(r.br, b); err != nil {
		r.err = fmt.Errorf("dex: decode: truncated input: %w", err)
	}
}

func (r *refReader) u32() uint32 {
	var b [4]byte
	r.bytes(b[:])
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b[:])
}

func (r *refReader) u8() uint8 {
	var b [1]byte
	r.bytes(b[:])
	if r.err != nil {
		return 0
	}
	return b[0]
}
