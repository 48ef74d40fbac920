// TRC2: the framed, block-compressed trace container, and the only
// trace format the system writes or reads.
//
// The records themselves are a compact varint stream, but an unframed
// stream cannot tell a file cut at a record boundary from its end: the
// cut decodes as a clean, shorter trace, silently shortening every
// figure built from it. TRC2 applies the checkpoint store's durability
// discipline to traces:
//
//	file   := "TRC2" frame* footerFrame
//	frame  := kind(1) | len(u32 LE) | crc32c(payload)(u32 LE) | payload
//
// A 'B' frame's payload is a DEFLATE-compressed block of records: a
// uvarint record count followed by the records, each an op byte (bit 7
// set when a LoadDep byte follows), the signed varint PC delta from
// the previous record and, for a load or store, the uvarint address.
// The PC delta chain resets at each block start so every block decodes
// independently. The final 'F' frame's payload (stored uncompressed)
// is the total record count and the SHA-256 content hash of the
// canonical record stream. Every payload byte is covered by a
// CRC32-C; the framing fields themselves are cross-checked by
// structure (kind whitelist, length caps, footer totals), so a torn or
// bit-flipped file is detected and reported — never silently dropped
// or shortened. The content hash doubles as the trace's identity in
// the content-addressed corpus (corpus.go).

package trace

import (
	"bufio"
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"

	"repro/internal/mem"
)

// magicV2 identifies a TRC2 container.
var magicV2 = [4]byte{'T', 'R', 'C', '2'}

// Frame kinds.
const (
	frameBlock  = 'B'
	frameFooter = 'F'
)

const (
	// defaultBlockRecords is how many records the writer packs per
	// block: big enough to compress well, small enough that a streaming
	// reader holds only ~hundreds of KB decompressed.
	defaultBlockRecords = 1 << 16
	// maxBlockPayload caps a block frame's compressed payload; a length
	// prefix beyond it is rejected before any allocation, so a hostile
	// or corrupt length cannot balloon memory.
	maxBlockPayload = 64 << 20
	// maxBlockRecords caps the per-block record count a reader will
	// accept (the writer stays far below it).
	maxBlockRecords = 1 << 22
	// footerPayloadLen: uvarint total (1..10 bytes) + 32-byte SHA-256.
	footerPayloadMin = 1 + sha256.Size
	footerPayloadMax = binary.MaxVarintLen64 + sha256.Size
)

// crcV2 is the Castagnoli table shared with the checkpoint store —
// hardware-accelerated, the standard storage checksum.
var crcV2 = crc32.MakeTable(crc32.Castagnoli)

// hashRecord folds one record into the running content hash in a
// canonical fixed-width encoding (op, dep, PC, addr — addr zero for
// non-memory records, matching what any decoder returns). The hash is
// independent of block boundaries, so the same records always name
// the same corpus entry no matter how they were buffered.
func hashRecord(h hash.Hash, r Record) {
	var b [18]byte
	b[0] = byte(r.Op)
	b[1] = r.LoadDep
	binary.LittleEndian.PutUint64(b[2:], r.PC)
	if r.Op != NonMem {
		binary.LittleEndian.PutUint64(b[10:], uint64(r.Addr))
	}
	h.Write(b[:])
}

// WriterV2 streams records into a TRC2 container. Records buffer into
// blocks of blockRecords, each compressed and framed independently;
// Close flushes the final partial block and the footer. Nothing is
// held beyond one block, so arbitrarily long traces write in constant
// memory.
type WriterV2 struct {
	w     *bufio.Writer
	block bytes.Buffer // encoded records of the open block
	comp  bytes.Buffer // scratch for the compressed payload
	fw    *flate.Writer

	blockRecords int
	blockN       uint64
	lastPC       uint64
	n            uint64
	hash         hash.Hash
	sum          []byte // content hash, fixed at Close

	header bool
	closed bool
	err    error
}

// NewWriterV2 returns a TRC2 writer on w with the default block size.
// The caller must Close it to emit the footer; a container without a
// footer reads back as truncated.
func NewWriterV2(w io.Writer) *WriterV2 {
	fw, err := flate.NewWriter(io.Discard, flate.BestSpeed)
	if err != nil {
		// flate.NewWriter only fails on an invalid level; BestSpeed is valid.
		panic(fmt.Sprintf("trace: flate init: %v", err))
	}
	return &WriterV2{
		w:            bufio.NewWriter(w),
		fw:           fw,
		blockRecords: defaultBlockRecords,
		hash:         sha256.New(),
	}
}

// SetBlockRecords overrides the records-per-block target (tests use
// tiny blocks to exercise multi-block files cheaply). It must be
// called before the first Write.
func (tw *WriterV2) SetBlockRecords(n int) {
	if tw.n != 0 || tw.block.Len() != 0 {
		panic("trace: SetBlockRecords after Write")
	}
	if n < 1 || n > maxBlockRecords {
		panic("trace: SetBlockRecords out of range")
	}
	tw.blockRecords = n
}

// Write appends one record.
func (tw *WriterV2) Write(r Record) error {
	if tw.err != nil {
		return tw.err
	}
	if tw.closed {
		return errors.New("trace: Write after Close")
	}
	var buf [binary.MaxVarintLen64*2 + 3]byte
	buf[0] = byte(r.Op)
	if r.LoadDep != 0 {
		buf[0] |= 0x80
	}
	n := 1
	if r.LoadDep != 0 {
		buf[n] = r.LoadDep
		n++
	}
	n += binary.PutVarint(buf[n:], int64(r.PC)-int64(tw.lastPC))
	tw.lastPC = r.PC
	if r.Op != NonMem {
		n += binary.PutUvarint(buf[n:], uint64(r.Addr))
	}
	tw.block.Write(buf[:n])
	tw.blockN++
	tw.n++
	hashRecord(tw.hash, r)
	if tw.blockN >= uint64(tw.blockRecords) {
		if err := tw.flushBlock(); err != nil {
			return err
		}
	}
	return nil
}

// flushBlock compresses and frames the open block.
func (tw *WriterV2) flushBlock() error {
	if tw.blockN == 0 {
		return nil
	}
	if err := tw.writeHeader(); err != nil {
		return err
	}
	tw.comp.Reset()
	var cnt [binary.MaxVarintLen64]byte
	tw.fw.Reset(&tw.comp)
	if _, err := tw.fw.Write(cnt[:binary.PutUvarint(cnt[:], tw.blockN)]); err != nil {
		return tw.fail(err)
	}
	if _, err := tw.fw.Write(tw.block.Bytes()); err != nil {
		return tw.fail(err)
	}
	if err := tw.fw.Close(); err != nil {
		return tw.fail(err)
	}
	if err := tw.writeFrame(frameBlock, tw.comp.Bytes()); err != nil {
		return err
	}
	tw.block.Reset()
	tw.blockN = 0
	tw.lastPC = 0 // each block's delta chain starts fresh
	return nil
}

// writeHeader emits the magic once.
func (tw *WriterV2) writeHeader() error {
	if tw.header {
		return nil
	}
	if _, err := tw.w.Write(magicV2[:]); err != nil {
		return tw.fail(err)
	}
	tw.header = true
	return nil
}

// writeFrame emits one kind/len/crc/payload frame.
func (tw *WriterV2) writeFrame(kind byte, payload []byte) error {
	var hdr [9]byte
	hdr[0] = kind
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[5:], crc32.Checksum(payload, crcV2))
	if _, err := tw.w.Write(hdr[:]); err != nil {
		return tw.fail(err)
	}
	if _, err := tw.w.Write(payload); err != nil {
		return tw.fail(err)
	}
	return nil
}

func (tw *WriterV2) fail(err error) error {
	if tw.err == nil {
		tw.err = fmt.Errorf("trace: writing TRC2: %w", err)
	}
	return tw.err
}

// Close flushes the final partial block, writes the footer, and
// flushes buffered output. It does not close the underlying writer.
// Close is idempotent; after a successful Close, ContentHash names the
// full record stream.
func (tw *WriterV2) Close() error {
	if tw.closed {
		return tw.err
	}
	if tw.err != nil {
		return tw.err
	}
	if err := tw.flushBlock(); err != nil {
		return err
	}
	if err := tw.writeHeader(); err != nil {
		return err
	}
	tw.sum = tw.hash.Sum(nil)
	payload := make([]byte, 0, footerPayloadMax)
	var cnt [binary.MaxVarintLen64]byte
	payload = append(payload, cnt[:binary.PutUvarint(cnt[:], tw.n)]...)
	payload = append(payload, tw.sum...)
	if err := tw.writeFrame(frameFooter, payload); err != nil {
		return err
	}
	if err := tw.w.Flush(); err != nil {
		return tw.fail(err)
	}
	tw.closed = true
	return nil
}

// Count returns the number of records written.
func (tw *WriterV2) Count() uint64 { return tw.n }

// ContentHash returns the canonical identity of the record stream,
// "sha256:<hex>". Valid after Close.
func (tw *WriterV2) ContentHash() string {
	if tw.sum == nil {
		panic("trace: ContentHash before Close")
	}
	return "sha256:" + hex.EncodeToString(tw.sum)
}

// ReaderV2 decodes a TRC2 container as a stream: one frame is resident
// at a time, so traces never fully materialize in memory. After the
// stream is exhausted, Err is nil only if the file ended with an
// intact footer whose record count and content hash match what was
// decoded — a torn, truncated, or bit-flipped file always reports an
// error. A stream that does not start with "TRC2", such as a file in
// the retired unframed "TRC\x01" format, yields no record and a
// bad-magic error.
type ReaderV2 struct {
	r   *bufio.Reader
	err error

	header bool
	done   bool

	payload []byte // reusable compressed-frame buffer
	block   []byte // decompressed records of the current block
	pos     int
	remain  uint64 // records left in the current block
	lastPC  uint64

	n    uint64
	hash hash.Hash
	sum  []byte // footer hash, after a clean end
}

// NewReaderV2 returns a streaming decoder for a TRC2 container.
func NewReaderV2(r io.Reader) *ReaderV2 {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	return &ReaderV2{r: br, hash: sha256.New()}
}

// Err returns the first decoding error; nil only after every block and
// the footer verified.
func (fr *ReaderV2) Err() error { return fr.err }

// Count returns the number of records decoded so far (the verified
// total once the stream ended cleanly).
func (fr *ReaderV2) Count() uint64 { return fr.n }

// ContentHash returns "sha256:<hex>" of the decoded stream. Valid only
// after the stream ended with Err() == nil.
func (fr *ReaderV2) ContentHash() string {
	if fr.sum == nil {
		panic("trace: ContentHash before clean end of stream")
	}
	return "sha256:" + hex.EncodeToString(fr.sum)
}

func (fr *ReaderV2) fail(format string, args ...any) {
	if fr.err == nil {
		fr.err = fmt.Errorf("trace: TRC2: "+format, args...)
	}
}

// Next implements Reader.
func (fr *ReaderV2) Next() (Record, bool) {
	if fr.err != nil || fr.done {
		return Record{}, false
	}
	if !fr.header {
		var got [4]byte
		if _, err := io.ReadFull(fr.r, got[:]); err != nil {
			fr.fail("truncated magic: %w", unexpected(err))
			return Record{}, false
		}
		if got != magicV2 {
			fr.fail("bad magic %v", got)
			return Record{}, false
		}
		fr.header = true
	}
	for fr.remain == 0 {
		if !fr.nextFrame() {
			return Record{}, false
		}
	}
	rec, ok := fr.decodeRecord()
	if !ok {
		return Record{}, false
	}
	fr.remain--
	fr.n++
	hashRecord(fr.hash, rec)
	if fr.remain == 0 && fr.pos != len(fr.block) {
		fr.fail("block carries %d bytes past its %d records", len(fr.block)-fr.pos, fr.n)
		return Record{}, false
	}
	return rec, true
}

// nextFrame reads and validates the next frame. It returns true when a
// non-empty block is resident; false at the clean end of the stream or
// on error (distinguished by fr.err).
func (fr *ReaderV2) nextFrame() bool {
	kind, err := fr.r.ReadByte()
	if err != nil {
		// EOF here means the footer never arrived: the file is torn at a
		// frame boundary, which is exactly the silent-truncation case the
		// container exists to catch.
		if errors.Is(err, io.EOF) {
			fr.fail("missing footer (file truncated at a frame boundary): %w", io.ErrUnexpectedEOF)
		} else {
			fr.fail("reading frame: %w", err)
		}
		return false
	}
	var hdr [8]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		fr.fail("truncated frame header: %w", unexpected(err))
		return false
	}
	plen := binary.LittleEndian.Uint32(hdr[0:4])
	want := binary.LittleEndian.Uint32(hdr[4:8])
	switch kind {
	case frameBlock:
		if plen == 0 || plen > maxBlockPayload {
			fr.fail("block payload length %d out of range", plen)
			return false
		}
	case frameFooter:
		if plen < footerPayloadMin || plen > footerPayloadMax {
			fr.fail("footer payload length %d out of range", plen)
			return false
		}
	default:
		fr.fail("unknown frame kind %q", kind)
		return false
	}
	if cap(fr.payload) < int(plen) {
		fr.payload = make([]byte, plen)
	}
	fr.payload = fr.payload[:plen]
	if _, err := io.ReadFull(fr.r, fr.payload); err != nil {
		fr.fail("truncated frame payload: %w", unexpected(err))
		return false
	}
	if got := crc32.Checksum(fr.payload, crcV2); got != want {
		fr.fail("frame CRC mismatch (stored %08x, computed %08x)", want, got)
		return false
	}
	if kind == frameFooter {
		fr.finish(fr.payload)
		return false
	}
	return fr.openBlock(fr.payload)
}

// openBlock decompresses a verified block payload and validates its
// record count.
func (fr *ReaderV2) openBlock(payload []byte) bool {
	zr := flate.NewReader(bytes.NewReader(payload))
	raw, err := io.ReadAll(io.LimitReader(zr, maxBlockRecords*(binary.MaxVarintLen64*2+3)+binary.MaxVarintLen64))
	if cerr := zr.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fr.fail("decompressing block: %w", err)
		return false
	}
	cnt, n := binary.Uvarint(raw)
	if n <= 0 {
		fr.fail("block missing record count")
		return false
	}
	if cnt == 0 || cnt > maxBlockRecords {
		fr.fail("block record count %d out of range", cnt)
		return false
	}
	fr.block = raw[n:]
	fr.pos = 0
	fr.remain = cnt
	fr.lastPC = 0
	return true
}

// finish validates the footer against the decoded stream and checks
// for trailing garbage.
func (fr *ReaderV2) finish(payload []byte) {
	total, n := binary.Uvarint(payload)
	if n <= 0 || len(payload) != n+sha256.Size {
		fr.fail("malformed footer")
		return
	}
	if total != fr.n {
		fr.fail("footer records %d, decoded %d", total, fr.n)
		return
	}
	sum := fr.hash.Sum(nil)
	if !bytes.Equal(sum, payload[n:]) {
		fr.fail("content hash mismatch (footer %x, decoded %x)", payload[n:], sum)
		return
	}
	if _, err := fr.r.ReadByte(); err == nil {
		fr.fail("trailing data after footer")
		return
	} else if !errors.Is(err, io.EOF) {
		fr.fail("reading past footer: %w", err)
		return
	}
	fr.sum = sum
	fr.done = true
}

// decodeRecord decodes one record from the resident block.
func (fr *ReaderV2) decodeRecord() (Record, bool) {
	b := fr.block
	i := fr.pos
	if i >= len(b) {
		fr.fail("block truncated mid-record")
		return Record{}, false
	}
	opByte := b[i]
	i++
	var rec Record
	rec.Op = Op(opByte & 0x7F)
	if rec.Op > Store {
		fr.fail("bad op %d", rec.Op)
		return Record{}, false
	}
	if opByte&0x80 != 0 {
		if i >= len(b) {
			fr.fail("block truncated mid-record")
			return Record{}, false
		}
		rec.LoadDep = b[i]
		i++
	}
	dpc, n := binary.Varint(b[i:])
	if n <= 0 {
		fr.fail("block truncated mid-record")
		return Record{}, false
	}
	i += n
	fr.lastPC = uint64(int64(fr.lastPC) + dpc)
	rec.PC = fr.lastPC
	if rec.Op != NonMem {
		addr, n := binary.Uvarint(b[i:])
		if n <= 0 {
			fr.fail("block truncated mid-record")
			return Record{}, false
		}
		i += n
		rec.Addr = mem.Addr(addr)
	}
	fr.pos = i
	return rec, true
}

// unexpected maps io.EOF to io.ErrUnexpectedEOF: inside a frame or
// header, the stream has no right to end.
func unexpected(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}
