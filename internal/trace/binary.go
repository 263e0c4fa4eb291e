package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"secpref/internal/mem"
)

// Binary trace encoding
//
// A trace file is:
//
//	magic   [8]byte  "SECPREF1"
//	nameLen uint16   little-endian
//	name    [nameLen]byte
//	count   uint64   number of instruction records
//	records ...
//
// Each record is a flags byte followed by varint-encoded fields, so
// non-memory instructions cost 1 byte plus the IP delta:
//
//	flags: bit0 hasLoad, bit1 hasStore, bit2 branch, bit3 taken, bit4 dep
//	ipDelta  varint (zig-zag, relative to previous IP)
//	load     uvarint (absolute, if hasLoad)
//	store    uvarint (absolute, if hasStore)

var magic = [8]byte{'S', 'E', 'C', 'P', 'R', 'E', 'F', '1'}

const (
	flagLoad   = 1 << 0
	flagStore  = 1 << 1
	flagBranch = 1 << 2
	flagTaken  = 1 << 3
	flagDep    = 1 << 4
)

// ErrBadTrace reports a malformed trace stream.
var ErrBadTrace = errors.New("trace: malformed trace stream")

// Write encodes t to w in the binary trace format.
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	if len(t.Name) > 0xffff {
		return fmt.Errorf("trace: name too long (%d bytes)", len(t.Name))
	}
	var hdr [2]byte
	binary.LittleEndian.PutUint16(hdr[:], uint16(len(t.Name)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := bw.WriteString(t.Name); err != nil {
		return err
	}
	var cnt [8]byte
	binary.LittleEndian.PutUint64(cnt[:], uint64(len(t.Instrs)))
	if _, err := bw.Write(cnt[:]); err != nil {
		return err
	}
	var buf [3 * binary.MaxVarintLen64]byte
	prevIP := uint64(0)
	for _, in := range t.Instrs {
		var flags byte
		if in.Load != 0 {
			flags |= flagLoad
		}
		if in.Store != 0 {
			flags |= flagStore
		}
		if in.Branch {
			flags |= flagBranch
		}
		if in.Taken {
			flags |= flagTaken
		}
		if in.Dep {
			flags |= flagDep
		}
		if err := bw.WriteByte(flags); err != nil {
			return err
		}
		n := binary.PutVarint(buf[:], int64(uint64(in.IP)-prevIP))
		prevIP = uint64(in.IP)
		if in.Load != 0 {
			n += binary.PutUvarint(buf[n:], uint64(in.Load))
		}
		if in.Store != 0 {
			n += binary.PutUvarint(buf[n:], uint64(in.Store))
		}
		if _, err := bw.Write(buf[:n]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// maxPrealloc caps the records Read reserves up front (128 KiB): the
// header's count is untrusted until the records behind it have been
// read, so a short stream claiming billions of records must not
// reserve gigabytes. Longer traces grow by append.
const maxPrealloc = 1 << 12

// Read decodes a full trace from r. Every failure to decode one (bad
// magic, an implausible count, a truncated stream, an overlong varint,
// a failing reader) returns an error that wraps ErrBadTrace and the
// read error behind it, if any.
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	var m [8]byte
	if err := readFull(br, m[:], "magic"); err != nil {
		return nil, err
	}
	if m != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadTrace, m[:])
	}
	var hdr [2]byte
	if err := readFull(br, hdr[:], "header"); err != nil {
		return nil, err
	}
	nameLen := binary.LittleEndian.Uint16(hdr[:])
	name := make([]byte, nameLen)
	if err := readFull(br, name, "name"); err != nil {
		return nil, err
	}
	var cnt [8]byte
	if err := readFull(br, cnt[:], "count"); err != nil {
		return nil, err
	}
	count := binary.LittleEndian.Uint64(cnt[:])
	const maxReasonable = 1 << 32
	if count > maxReasonable {
		return nil, fmt.Errorf("%w: implausible instruction count %d", ErrBadTrace, count)
	}
	t := &Trace{Name: string(name), Instrs: make([]Instr, 0, min(count, maxPrealloc))}
	prevIP := uint64(0)
	for i := uint64(0); i < count; i++ {
		flags, err := br.ReadByte()
		if err != nil {
			return nil, badRecord(i, "flags", err)
		}
		d, err := binary.ReadVarint(br)
		if err != nil {
			return nil, badRecord(i, "ip", err)
		}
		prevIP += uint64(d)
		in := Instr{
			IP:     mem.Addr(prevIP),
			Branch: flags&flagBranch != 0,
			Taken:  flags&flagTaken != 0,
			Dep:    flags&flagDep != 0,
		}
		if flags&flagLoad != 0 {
			v, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, badRecord(i, "load", err)
			}
			in.Load = mem.Addr(v)
		}
		if flags&flagStore != 0 {
			v, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, badRecord(i, "store", err)
			}
			in.Store = mem.Addr(v)
		}
		t.Instrs = append(t.Instrs, in)
	}
	return t, nil
}

// readFull fills b from r; a stream that ends first is malformed.
func readFull(r io.Reader, b []byte, what string) error {
	if _, err := io.ReadFull(r, b); err != nil {
		return fmt.Errorf("%w: reading %s: %w", ErrBadTrace, what, err)
	}
	return nil
}

// badRecord wraps a failure to decode one field of record i.
func badRecord(i uint64, field string, err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("%w: record %d %s: %w", ErrBadTrace, i, field, err)
}
