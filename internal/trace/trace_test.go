package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"secpref/internal/mem"
)

// genInstrs builds a random but valid instruction slice.
func genInstrs(rng *rand.Rand, n int) []Instr {
	out := make([]Instr, n)
	ip := mem.Addr(0x400000)
	for i := range out {
		in := Instr{IP: ip}
		ip += mem.Addr(rng.Intn(16) * 4)
		switch rng.Intn(4) {
		case 0:
			in.Load = mem.Addr(rng.Uint64()>>8 & ^uint64(0) | 1)
		case 1:
			in.Store = mem.Addr(rng.Uint64()>>8 | 1)
		case 2:
			in.Branch = true
			in.Taken = rng.Intn(2) == 0
		}
		if in.Load != 0 && rng.Intn(3) == 0 {
			in.Dep = true
		}
		out[i] = in
	}
	return out
}

func TestBinaryRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw % 500)
		orig := &Trace{Name: "t", Instrs: genInstrs(rng, n)}
		var buf bytes.Buffer
		if err := Write(&buf, orig); err != nil {
			t.Logf("write: %v", err)
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			t.Logf("read: %v", err)
			return false
		}
		return got.Name == orig.Name && reflect.DeepEqual(got.Instrs, orig.Instrs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestReadRejectsBadMagic(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("NOTATRACE-------"))); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("bad magic: error %v, want ErrBadTrace", err)
	}
}

func TestReadRejectsTruncated(t *testing.T) {
	orig := &Trace{Name: "x", Instrs: genInstrs(rand.New(rand.NewSource(1)), 100)}
	var buf bytes.Buffer
	if err := Write(&buf, orig); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for cut := 0; cut < len(raw); cut++ {
		if _, err := Read(bytes.NewReader(raw[:cut])); !errors.Is(err, ErrBadTrace) {
			t.Fatalf("truncation at %d of %d bytes: error %v, want ErrBadTrace", cut, len(raw), err)
		}
	}
}

// A short stream whose header claims millions of records must fail
// without reserving room for them (1<<22 records would be 128 MiB).
func TestReadHugeCountAllocatesLittle(t *testing.T) {
	hdr := append([]byte("SECPREF1\x04\x00huge"), make([]byte, 8)...)
	binary.LittleEndian.PutUint64(hdr[len(hdr)-8:], 1<<22)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	_, err := Read(bytes.NewReader(hdr))
	runtime.ReadMemStats(&ms1)
	if !errors.Is(err, ErrBadTrace) {
		t.Errorf("%d-byte header then EOF: error %v, want ErrBadTrace", len(hdr), err)
	}
	if n := ms1.TotalAlloc - ms0.TotalAlloc; n >= 1<<20 {
		t.Errorf("reading a %d-byte stream allocated %d bytes", len(hdr), n)
	}
}

// FuzzTraceReader feeds arbitrary bytes to Read: it must never panic,
// every error must wrap ErrBadTrace, and a stream it accepts must
// survive a Write/Read round trip unchanged. The seed corpus
// (testdata/fuzz/FuzzTraceReader) holds a valid trace and one stream
// per malformation Read rejects.
func FuzzTraceReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadTrace) {
				t.Fatalf("error %v does not wrap ErrBadTrace", err)
			}
			return
		}
		var out bytes.Buffer
		if err := Write(&out, tr); err != nil {
			t.Fatalf("re-encoding an accepted trace: %v", err)
		}
		got, err := Read(&out)
		if err != nil {
			t.Fatalf("reading a re-encoded trace: %v", err)
		}
		if got.Name != tr.Name || !reflect.DeepEqual(got.Instrs, tr.Instrs) {
			t.Fatal("accepted trace changed in a Write/Read round trip")
		}
	})
}

func TestSourceIteration(t *testing.T) {
	tr := &Trace{Name: "s", Instrs: genInstrs(rand.New(rand.NewSource(2)), 10)}
	src := NewSource(tr)
	if src.Name() != "s" {
		t.Errorf("name %q", src.Name())
	}
	var got []Instr
	for {
		in, ok := src.Next()
		if !ok {
			break
		}
		got = append(got, in)
	}
	if !reflect.DeepEqual(got, tr.Instrs) {
		t.Fatal("iteration mismatch")
	}
	if _, ok := src.Next(); ok {
		t.Fatal("Next after end should fail")
	}
	src.Reset()
	if in, ok := src.Next(); !ok || in != tr.Instrs[0] {
		t.Fatal("Reset did not rewind")
	}
}

func TestRepeatWrapsAndBounds(t *testing.T) {
	tr := &Trace{Name: "r", Instrs: genInstrs(rand.New(rand.NewSource(3)), 7)}
	src := Repeat(NewSource(tr), 20)
	count := 0
	for {
		in, ok := src.Next()
		if !ok {
			break
		}
		if in != tr.Instrs[count%7] {
			t.Fatalf("instruction %d mismatch", count)
		}
		count++
	}
	if count != 20 {
		t.Fatalf("Repeat yielded %d instructions, want 20", count)
	}
	src.Reset()
	if _, ok := src.Next(); !ok {
		t.Fatal("Reset should restart the repeat budget")
	}
}

func TestRepeatEmptyUnderlying(t *testing.T) {
	src := Repeat(NewSource(&Trace{Name: "e"}), 5)
	if _, ok := src.Next(); ok {
		t.Fatal("empty trace should yield nothing")
	}
}

func TestOffsetRelocatesDataOnly(t *testing.T) {
	tr := &Trace{Name: "o", Instrs: []Instr{
		{IP: 0x400, Load: 0x1000},
		{IP: 0x404, Store: 0x2000},
		{IP: 0x408, Branch: true, Taken: true},
	}}
	src := Offset(NewSource(tr), 0x10_0000)
	in, _ := src.Next()
	if in.Load != 0x101000 || in.IP != 0x400 {
		t.Errorf("load offset wrong: %+v", in)
	}
	in, _ = src.Next()
	if in.Store != 0x102000 {
		t.Errorf("store offset wrong: %+v", in)
	}
	in, _ = src.Next()
	if in.Load != 0 || in.Store != 0 {
		t.Errorf("branch gained data address: %+v", in)
	}
}
