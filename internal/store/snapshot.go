package store

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hbbtvlab/hbbtvlab/internal/appmodel"
	"github.com/hbbtvlab/hbbtvlab/internal/dvb"
	"github.com/hbbtvlab/hbbtvlab/internal/intern"
	"github.com/hbbtvlab/hbbtvlab/internal/proxy"
	"github.com/hbbtvlab/hbbtvlab/internal/telemetry"
	"github.com/hbbtvlab/hbbtvlab/internal/webos"
)

// This file implements the binary snapshot format — the fast on-disk twin
// of the gzip-JSON format in json.go. Every string a dataset repeats (hosts,
// header names and values, channel names, log details) is stored once in a
// shared table, every body once in a deduplicated blob table, and records
// reference them by dense integer ID. Loading a snapshot rebuilds the
// dataset by table lookup instead of JSON decoding and URL re-parsing,
// which is what makes paper-scale loads land at a fraction of the gzip-JSON
// cost.
//
// Layout (all integers are varints, "uv" = unsigned, "v" = signed; strings
// are uv IDs into the string table; times are a presence byte + v unix
// nanoseconds, absent = the zero time):
//
//	magic "HBTV", version byte
//	sections, each: tag byte, uv payload length, payload
//	  tag 1  string table: uv count, then per string uv len + bytes
//	  tag 2  blob table:   uv count, then per blob   uv len + bytes
//	  tag 3  run:          name, date,
//	                       channels (uv count+1, 0 = nil: name, id,
//	                         satellite, language, uv category count +
//	                         categories, show, genre),
//	                       cookies (uv count: name, value, domain, path,
//	                         expires, created, host-only byte, set-by),
//	                       storage (uv count: origin, key, value),
//	                       screenshots (uv count: time, channel, channel-id,
//	                         has-signal byte, show, uv overlay-JSON ref,
//	                         0 = none else string ID + 1),
//	                       logs (uv count: time, kind, detail),
//	                       outcomes (uv count: channel, status, v attempts,
//	                         error),
//	                       v recovered-panics,
//	                       uv flow count, then flow chunks (snapFlowChunk
//	                         records each): uv byte length + records
//	  tag 4  telemetry:    telemetry.Snapshot as JSON
//	  tag 5  request-header table:  uv count, per block uv len + bytes
//	  tag 6  response-header table: uv count, per block uv len + bytes
//	  tag 7  shard manifest: ShardManifest as JSON (fleet shard datasets
//	         only; written before every other section so fleet tooling can
//	         read a shard's identity without decoding the data)
//	  tag 8  span trace:     telemetry.Trace as JSON
//	  tag 9  checkpoint:     Checkpoint metadata as JSON (checkpoint files
//	         only — see checkpoint.go; written first, one tag-3 run section
//	         follows per cell; the dataset loader skips it)
//	  tag 10 end marker:     empty payload, always the last section; its
//	         absence tells the loader the file was cut at a section
//	         boundary (mid-section cuts fail the section framing itself)
//
// Flow records are framed in length-prefixed chunks so the loader can
// decode chunks concurrently — records themselves are variable-length, and
// without the frame a reader could not split the stream without scanning
// every varint serially.
//
// Unknown tags are skipped on read — the length prefix makes every section
// self-delimiting, so the format can grow without breaking old readers.
// Both tables are written before the first run section; string and blob
// IDs are first-occurrence dense indices, so a snapshot of a given dataset
// is byte-deterministic.
//
// Flow record:
//
//	flags byte: bit0 HTTPS, bit1 URL stored decomposed, bit2 time non-zero
//	v  id
//	v  time (unix nanoseconds; only when flags bit2)
//	uv method string ID
//	URL: decomposed (uv scheme, host, path, rawquery IDs) when bit1,
//	     else uv full-URL string ID
//	uv request-header table ID
//	uv request-body blob ref (0 = none, else blob ID + 1)
//	v  status
//	uv response-header table ID
//	v  response size
//	uv response-body blob ref
//	uv channel ID, uv channel-ID ID
//
// Header blocks live in two deduplicated tables (request / response); a
// block is "uv count, per entry uv name ID + uv joined-value ID", and
// response blocks append "uv count + uv value IDs" for Set-Cookie, which
// the flattened form carries separately exactly like the JSON format
// (multi-values joined with "\n"). Dataset header shapes have tiny
// cardinality next to flow counts, so the table turns per-flow header
// reconstruction into one index lookup at load time. A flow's URL is
// stored decomposed only when reassembling scheme://host/path?query is
// provably identical to re-parsing the URL's string form — so a snapshot
// load is indistinguishable from a JSON load, field for field. The digest
// equivalence of the two formats is enforced by TestSnapshotRoundTrip.

const (
	snapshotMagic0 = 'H'
	snapshotMagic1 = 'B'
	snapshotMagic  = "HBTV"
	snapshotVer    = 1

	secStrings    = 1
	secBlobs      = 2
	secRun        = 3
	secTelemetry  = 4
	secReqHdrs    = 5
	secRespHdrs   = 6
	secShard      = 7
	secTrace      = 8
	secCheckpoint = 9
	secEnd        = 10

	flowFlagHTTPS   = 1 << 0
	flowFlagFastURL = 1 << 1
	flowFlagHasTime = 1 << 2

	// snapFlowChunk is how many flow records one length-prefixed chunk
	// holds — the unit of parallel decoding.
	snapFlowChunk = 2048
)

// sniffReader is the buffered reader Load uses to peek at magic bytes.
type sniffReader = bufio.Reader

func newSniffReader(r io.Reader) *sniffReader {
	if br, ok := r.(*bufio.Reader); ok {
		return br
	}
	return bufio.NewReaderSize(r, 1<<16)
}

// snapWriter accumulates the snapshot payload.
type snapWriter struct {
	buf []byte
}

func (w *snapWriter) byte(b byte)      { w.buf = append(w.buf, b) }
func (w *snapWriter) uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *snapWriter) varint(v int64)   { w.buf = binary.AppendVarint(w.buf, v) }
func (w *snapWriter) bytes(b []byte) {
	w.uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// snapReader decodes a snapshot payload from an in-memory byte slice,
// capturing the first error.
type snapReader struct {
	b   []byte
	off int
	err error
}

func (r *snapReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("store: snapshot: "+format, args...)
	}
}

func (r *snapReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail("truncated at offset %d", r.off)
		return 0
	}
	b := r.b[r.off]
	r.off++
	return b
}

func (r *snapReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *snapReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *snapReader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if uint64(len(r.b)-r.off) < n {
		r.fail("truncated blob at offset %d", r.off)
		return nil
	}
	b := r.b[r.off : r.off+int(n) : r.off+int(n)]
	r.off += int(n)
	return b
}

func (r *snapReader) str(tab []string) string {
	id := r.uvarint()
	if r.err != nil {
		return ""
	}
	if id >= uint64(len(tab)) {
		r.fail("string id %d out of range", id)
		return ""
	}
	return tab[id]
}

// blobTable deduplicates byte blobs (request/response bodies) at save time.
type blobTable struct {
	ids   map[string]uint64
	blobs [][]byte
}

func newBlobTable() *blobTable {
	return &blobTable{ids: make(map[string]uint64, 256)}
}

// ref returns the blob reference for b: 0 for none, blob ID + 1 otherwise.
func (t *blobTable) ref(b []byte) uint64 {
	if len(b) == 0 {
		return 0
	}
	if id, ok := t.ids[string(b)]; ok {
		return id + 1
	}
	id := uint64(len(t.blobs))
	t.ids[string(b)] = id
	t.blobs = append(t.blobs, b)
	return id + 1
}

// headerTable deduplicates encoded header blocks at save time. Blocks are
// keyed (and stored) by their exact bytes, so identical headers collapse to
// one dense ID no matter which flow carried them.
type headerTable struct {
	ids    map[string]uint64
	blocks []string
}

func newHeaderTable() *headerTable {
	return &headerTable{ids: make(map[string]uint64, 64)}
}

// ref returns the dense ID for the block, copying it on first sight (the
// caller reuses its scratch buffer).
func (t *headerTable) ref(block []byte) uint64 {
	if id, ok := t.ids[string(block)]; ok {
		return id
	}
	id := uint64(len(t.blocks))
	key := string(block)
	t.ids[key] = id
	t.blocks = append(t.blocks, key)
	return id
}

// saveSnapshot writes the dataset in the binary snapshot format. The output
// is deterministic: saving the same dataset twice yields identical bytes.
func (d *Dataset) saveSnapshot(w io.Writer) error {
	tab := intern.NewStrings(1024)
	tab.Intern("") // ID 0 is the empty string
	blobs := newBlobTable()

	// Pass 1: encode run sections into memory, building the tables.
	runSecs := make([][]byte, 0, len(d.Runs))
	scratch := flowSnapScratch{reqTab: newHeaderTable(), respTab: newHeaderTable()}
	for _, run := range d.Runs {
		sec, err := encodeRunSnapshot(run, tab, blobs, &scratch)
		if err != nil {
			return err
		}
		runSecs = append(runSecs, sec)
	}

	// Pass 2: emit header, tables, runs, telemetry.
	bw := bufio.NewWriterSize(w, 1<<16)
	if err := writeSnapshotHeader(bw); err != nil {
		return err
	}

	// The shard manifest leads so fleet tooling can identify a shard file
	// from its first section; readers predating the fleet layer skip the
	// unknown tag.
	if d.Shard != nil {
		raw, err := json.Marshal(d.Shard)
		if err != nil {
			return fmt.Errorf("store: snapshot: marshal shard manifest: %w", err)
		}
		if err := writeSection(bw, secShard, raw); err != nil {
			return err
		}
	}

	if err := writeSnapshotTables(bw, tab, blobs, &scratch); err != nil {
		return err
	}

	for _, sec := range runSecs {
		if err := writeSection(bw, secRun, sec); err != nil {
			return err
		}
	}

	if d.Telemetry != nil {
		raw, err := json.Marshal(d.Telemetry)
		if err != nil {
			return fmt.Errorf("store: snapshot: marshal telemetry: %w", err)
		}
		if err := writeSection(bw, secTelemetry, raw); err != nil {
			return err
		}
	}
	if d.Trace != nil {
		raw, err := json.Marshal(d.Trace)
		if err != nil {
			return fmt.Errorf("store: snapshot: marshal trace: %w", err)
		}
		if err := writeSection(bw, secTrace, raw); err != nil {
			return err
		}
	}
	// The end marker makes truncation at a section boundary detectable —
	// without it a file cut between sections loads "cleanly" with runs
	// silently missing.
	if err := writeSection(bw, secEnd, nil); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}
	return nil
}

// writeSnapshotHeader emits the container preamble: magic and version.
func writeSnapshotHeader(bw *bufio.Writer) error {
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}
	if err := bw.WriteByte(snapshotVer); err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}
	return nil
}

// writeSnapshotTables emits the shared string, blob, and header tables,
// which every run section written after them references by dense ID. The
// checkpoint writer shares this path with saveSnapshot, so checkpoint
// files are ordinary snapshot containers.
func writeSnapshotTables(bw *bufio.Writer, tab *intern.Strings, blobs *blobTable, scratch *flowSnapScratch) error {
	var sw snapWriter
	sw.uvarint(uint64(tab.Len()))
	for _, s := range tab.All() {
		sw.uvarint(uint64(len(s)))
		sw.buf = append(sw.buf, s...)
	}
	if err := writeSection(bw, secStrings, sw.buf); err != nil {
		return err
	}

	sw.buf = sw.buf[:0]
	sw.uvarint(uint64(len(blobs.blobs)))
	for _, b := range blobs.blobs {
		sw.bytes(b)
	}
	if err := writeSection(bw, secBlobs, sw.buf); err != nil {
		return err
	}

	for _, ht := range []struct {
		tag byte
		tab *headerTable
	}{{secReqHdrs, scratch.reqTab}, {secRespHdrs, scratch.respTab}} {
		sw.buf = sw.buf[:0]
		sw.uvarint(uint64(len(ht.tab.blocks)))
		for _, b := range ht.tab.blocks {
			sw.uvarint(uint64(len(b)))
			sw.buf = append(sw.buf, b...)
		}
		if err := writeSection(bw, ht.tag, sw.buf); err != nil {
			return err
		}
	}
	return nil
}

func writeSection(w *bufio.Writer, tag byte, payload []byte) error {
	if err := w.WriteByte(tag); err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(payload)))
	if _, err := w.Write(hdr[:n]); err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}
	return nil
}

// flowSnapScratch is the per-save reusable state for flow encoding.
type flowSnapScratch struct {
	req     map[string]string
	resp    map[string]string
	keys    []string
	hw      snapWriter
	reqTab  *headerTable
	respTab *headerTable
}

// str writes the string's table reference, interning it on first sight.
func (w *snapWriter) str(tab *intern.Strings, s string) {
	w.uvarint(uint64(tab.Intern(s)))
}

// time writes a presence byte and, for non-zero times, the unix
// nanoseconds. The zero time has no representable UnixNano (year 1
// overflows int64), hence the sentinel.
func (w *snapWriter) time(t time.Time) {
	if t.IsZero() {
		w.byte(0)
		return
	}
	w.byte(1)
	w.varint(t.UnixNano())
}

// encodeRunSnapshot encodes one run section: binary metadata over the
// string table, then the binary flow records.
func encodeRunSnapshot(run *RunData, tab *intern.Strings, blobs *blobTable, scratch *flowSnapScratch) ([]byte, error) {
	if scratch.req == nil {
		scratch.req = make(map[string]string, 8)
		scratch.resp = make(map[string]string, 8)
	}
	var w snapWriter
	w.str(tab, string(run.Name))
	w.time(run.Date)
	// Channels passes through nil-vs-empty verbatim in the JSON format, so
	// the count is shifted by one to keep the distinction: 0 = nil.
	if run.Channels == nil {
		w.uvarint(0)
	} else {
		w.uvarint(uint64(len(run.Channels)) + 1)
		for i := range run.Channels {
			c := &run.Channels[i]
			w.str(tab, c.Name)
			w.str(tab, c.ID)
			w.str(tab, c.Satellite)
			w.str(tab, c.Language)
			w.uvarint(uint64(len(c.Categories)))
			for _, cat := range c.Categories {
				w.str(tab, string(cat))
			}
			w.str(tab, c.Show)
			w.str(tab, c.Genre)
		}
	}
	w.uvarint(uint64(len(run.Cookies)))
	for i := range run.Cookies {
		c := &run.Cookies[i]
		w.str(tab, c.Name)
		w.str(tab, c.Value)
		w.str(tab, c.Domain)
		w.str(tab, c.Path)
		w.time(c.Expires)
		w.time(c.Created)
		if c.HostOnly {
			w.byte(1)
		} else {
			w.byte(0)
		}
		w.str(tab, c.SetBy)
	}
	w.uvarint(uint64(len(run.Storage)))
	for i := range run.Storage {
		s := &run.Storage[i]
		w.str(tab, s.Origin)
		w.str(tab, s.Key)
		w.str(tab, s.Value)
	}
	w.uvarint(uint64(len(run.Screenshots)))
	for i := range run.Screenshots {
		s := &run.Screenshots[i]
		w.time(s.Time)
		w.str(tab, s.Channel)
		w.str(tab, s.ChannelID)
		if s.HasSignal {
			w.byte(1)
		} else {
			w.byte(0)
		}
		w.str(tab, s.Show)
		if s.Overlay == nil {
			w.uvarint(0)
		} else {
			// Overlays repeat from a small set of consent/app specs, so
			// their JSON form interns well — and the loader parses each
			// distinct overlay once.
			raw, err := json.Marshal(s.Overlay)
			if err != nil {
				return nil, fmt.Errorf("store: snapshot: marshal overlay: %w", err)
			}
			w.uvarint(uint64(tab.InternBytes(raw)) + 1)
		}
	}
	w.uvarint(uint64(len(run.Logs)))
	for i := range run.Logs {
		l := &run.Logs[i]
		w.time(l.Time)
		w.str(tab, string(l.Kind))
		w.str(tab, l.Detail)
	}
	w.uvarint(uint64(len(run.Outcomes)))
	for i := range run.Outcomes {
		o := &run.Outcomes[i]
		w.str(tab, o.Channel)
		w.str(tab, string(o.Status))
		w.varint(int64(o.Attempts))
		w.str(tab, o.Error)
	}
	w.varint(int64(run.RecoveredPanics))
	w.uvarint(uint64(len(run.Flows)))
	var cw snapWriter
	for lo := 0; lo < len(run.Flows); lo += snapFlowChunk {
		hi := min(lo+snapFlowChunk, len(run.Flows))
		cw.buf = cw.buf[:0]
		for _, f := range run.Flows[lo:hi] {
			encodeFlowSnapshot(&cw, f, tab, blobs, scratch)
		}
		w.bytes(cw.buf)
	}
	return w.buf, nil
}

func encodeFlowSnapshot(w *snapWriter, f *proxy.Flow, tab *intern.Strings, blobs *blobTable, scratch *flowSnapScratch) {
	urlStr := f.URL.String()
	fast := url.URL{Scheme: f.URL.Scheme, Host: f.URL.Host, Path: f.URL.Path, RawQuery: f.URL.RawQuery}
	fastOK := false
	if reparsed, err := url.Parse(urlStr); err == nil && *reparsed == fast {
		// Reassembling the four components is provably identical to
		// re-parsing the string form, so the loader can skip url.Parse.
		fastOK = true
	}

	var flags byte
	if f.HTTPS {
		flags |= flowFlagHTTPS
	}
	if fastOK {
		flags |= flowFlagFastURL
	}
	if !f.Time.IsZero() {
		flags |= flowFlagHasTime
	}
	w.byte(flags)
	w.varint(f.ID)
	if !f.Time.IsZero() {
		w.varint(f.Time.UnixNano())
	}
	w.uvarint(uint64(tab.Intern(f.Method)))
	if fastOK {
		w.uvarint(uint64(tab.Intern(f.URL.Scheme)))
		w.uvarint(uint64(tab.Intern(f.URL.Host)))
		w.uvarint(uint64(tab.Intern(f.URL.Path)))
		w.uvarint(uint64(tab.Intern(f.URL.RawQuery)))
	} else {
		w.uvarint(uint64(tab.Intern(urlStr)))
	}
	scratch.hw.buf = scratch.hw.buf[:0]
	encodeSnapHeader(&scratch.hw, flattenInto(scratch.req, f.RequestHeaders), tab, scratch)
	w.uvarint(scratch.reqTab.ref(scratch.hw.buf))
	w.uvarint(blobs.ref(f.RequestBody))
	w.varint(int64(f.StatusCode))
	respHdr := flattenInto(scratch.resp, f.ResponseHeaders)
	if respHdr != nil {
		delete(respHdr, "Set-Cookie")
	}
	scratch.hw.buf = scratch.hw.buf[:0]
	encodeSnapHeader(&scratch.hw, respHdr, tab, scratch)
	setCookies := f.ResponseHeaders.Values("Set-Cookie")
	scratch.hw.uvarint(uint64(len(setCookies)))
	for _, sc := range setCookies {
		scratch.hw.uvarint(uint64(tab.Intern(sc)))
	}
	w.uvarint(scratch.respTab.ref(scratch.hw.buf))
	w.varint(f.ResponseSize)
	w.uvarint(blobs.ref(f.ResponseBody))
	w.uvarint(uint64(tab.Intern(f.Channel)))
	w.uvarint(uint64(tab.Intern(f.ChannelID)))
}

// encodeSnapHeader writes a flattened header map in sorted key order so the
// snapshot bytes are deterministic.
func encodeSnapHeader(w *snapWriter, m map[string]string, tab *intern.Strings, scratch *flowSnapScratch) {
	w.uvarint(uint64(len(m)))
	if len(m) == 0 {
		return
	}
	keys := scratch.keys[:0]
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	scratch.keys = keys
	for _, k := range keys {
		w.uvarint(uint64(tab.Intern(k)))
		w.uvarint(uint64(tab.Intern(m[k])))
	}
}

// readAllSized reads the rest of r into memory. Seekable inputs (files,
// bytes.Reader) reveal their remaining length up front, so the buffer is
// allocated once instead of grown through io.ReadAll's doubling copies —
// at paper scale that alone is a triple-digit-millisecond difference.
func readAllSized(r io.Reader) ([]byte, error) {
	if s, ok := r.(io.Seeker); ok {
		cur, errCur := s.Seek(0, io.SeekCurrent)
		end, errEnd := s.Seek(0, io.SeekEnd)
		if errCur == nil && errEnd == nil && end >= cur {
			if _, err := s.Seek(cur, io.SeekStart); err != nil {
				return nil, err
			}
			buf := make([]byte, end-cur)
			if _, err := io.ReadFull(r, buf); err != nil {
				return nil, err
			}
			return buf, nil
		}
	}
	return io.ReadAll(r)
}

// LoadSnapshot reads a dataset written in FormatSnapshot.
func LoadSnapshot(r io.Reader) (*Dataset, error) {
	return loadSnapshot(r, nil)
}

// loadSnapshot reads a snapshot, optionally canonicalizing bodies and
// header blocks through a shared dedup table (see LoadDedup). Dedup
// happens at table-decode time — once per distinct blob/block, not once
// per flow — so the cost is proportional to the snapshot's content
// cardinality, and the parallel flow decode is untouched.
func loadSnapshot(r io.Reader, dd *Dedup) (*Dataset, error) {
	raw, err := readAllSized(r)
	if err != nil {
		return nil, fmt.Errorf("store: snapshot: %w", err)
	}
	if len(raw) < len(snapshotMagic)+1 || string(raw[:len(snapshotMagic)]) != snapshotMagic {
		return nil, fmt.Errorf("store: snapshot: bad magic")
	}
	if ver := raw[len(snapshotMagic)]; ver != snapshotVer {
		return nil, fmt.Errorf("store: unsupported snapshot version %d", ver)
	}
	sr := &snapReader{b: raw, off: len(snapshotMagic) + 1}

	dec := &snapDecoder{
		overlays: make(map[uint64]*appmodel.OverlaySpec, 16),
		dd:       dd,
	}
	d := &Dataset{}
	sawEnd := false
	for sr.err == nil && sr.off < len(sr.b) {
		tag := sr.byte()
		payload := sr.bytes()
		if sr.err != nil {
			break
		}
		ps := &snapReader{b: payload}
		switch tag {
		case secStrings:
			n := ps.uvarint()
			if n > uint64(len(payload)) {
				return nil, fmt.Errorf("store: snapshot: implausible string count %d", n)
			}
			dec.strs = make([]string, 0, n)
			for i := uint64(0); i < n && ps.err == nil; i++ {
				dec.strs = append(dec.strs, string(ps.bytes()))
			}
		case secBlobs:
			n := ps.uvarint()
			if n > uint64(len(payload)) {
				return nil, fmt.Errorf("store: snapshot: implausible blob count %d", n)
			}
			dec.blobs = make([][]byte, 0, n)
			for i := uint64(0); i < n && ps.err == nil; i++ {
				b := ps.bytes()
				// Blobs alias the file buffer; bodies are read-only
				// downstream, so no copy is needed.
				if dd != nil {
					b = dd.Blob(b)
				}
				dec.blobs = append(dec.blobs, b)
			}
		case secReqHdrs:
			dec.reqList = dec.decodeHeaderTable(ps, false)
		case secRespHdrs:
			dec.respList = dec.decodeHeaderTable(ps, true)
		case secRun:
			run, err := dec.decodeRun(ps)
			if err != nil {
				return nil, err
			}
			d.Runs = append(d.Runs, run)
		case secTelemetry:
			var snap telemetry.Snapshot
			if err := json.Unmarshal(payload, &snap); err != nil {
				return nil, fmt.Errorf("store: snapshot: telemetry: %w", err)
			}
			d.Telemetry = &snap
		case secShard:
			var m ShardManifest
			if err := json.Unmarshal(payload, &m); err != nil {
				return nil, fmt.Errorf("store: snapshot: shard manifest: %w", err)
			}
			d.Shard = &m
		case secTrace:
			var tr telemetry.Trace
			if err := json.Unmarshal(payload, &tr); err != nil {
				return nil, fmt.Errorf("store: snapshot: trace: %w", err)
			}
			d.Trace = &tr
		case secCheckpoint:
			// Checkpoint metadata (see checkpoint.go). A checkpoint file is
			// an ordinary snapshot container; the dataset loader skips the
			// resume bookkeeping and yields the cell runs as data.
		case secEnd:
			sawEnd = true
		default:
			// Unknown section from a newer writer: skip.
		}
		if ps.err != nil {
			return nil, ps.err
		}
	}
	if sr.err != nil {
		return nil, sr.err
	}
	if !sawEnd {
		return nil, fmt.Errorf("store: snapshot: truncated: missing end-of-snapshot marker (file cut at a section boundary?)")
	}
	return d, nil
}

// snapDecoder carries the per-load decode state. Each distinct header block
// in the two tables is built into an http.Header exactly once; flows then
// reference headers by index, so many flows share one map. Loaded datasets
// are read-only downstream, which makes that sharing safe.
type snapDecoder struct {
	strs     []string
	blobs    [][]byte
	reqList  []http.Header
	respList []http.Header
	// overlays caches parsed overlay specs by overlay-JSON string ID.
	overlays map[uint64]*appmodel.OverlaySpec
	// dd, when set, canonicalizes decoded blobs and header blocks across
	// loads sharing the table (fleet merge).
	dd *Dedup
}

// decodeHeaderTable builds every block of a header-table section.
func (d *snapDecoder) decodeHeaderTable(sr *snapReader, withSetCookie bool) []http.Header {
	n := sr.count()
	list := make([]http.Header, 0, n)
	for i := uint64(0); i < n && sr.err == nil; i++ {
		block := sr.bytes()
		if sr.err != nil {
			break
		}
		br := &snapReader{b: block}
		h := d.buildHeader(br, withSetCookie)
		if br.err != nil {
			sr.err = br.err
			break
		}
		if d.dd != nil {
			h = d.dd.Header(h)
		}
		list = append(list, h)
	}
	return list
}

// overlay parses the interned overlay-JSON string with the given table ID,
// caching the spec so each distinct overlay is parsed once per load.
func (d *snapDecoder) overlay(id uint64) (*appmodel.OverlaySpec, error) {
	if id >= uint64(len(d.strs)) {
		return nil, fmt.Errorf("store: snapshot: overlay id %d out of range", id)
	}
	if ov, ok := d.overlays[id]; ok {
		return ov, nil
	}
	var ov *appmodel.OverlaySpec
	if err := json.Unmarshal([]byte(d.strs[id]), &ov); err != nil {
		return nil, fmt.Errorf("store: snapshot: overlay: %w", err)
	}
	d.overlays[id] = ov
	return ov, nil
}

// time reads a presence byte + unix nanoseconds; absent = the zero time.
// time.Unix(0, ns).UTC() normalizes its location exactly like parsing the
// JSON format's "Z"-suffixed timestamps does, so both loaders produce
// deep-equal times.
func (r *snapReader) time() time.Time {
	if r.byte() == 0 {
		return time.Time{}
	}
	return time.Unix(0, r.varint()).UTC()
}

// count reads a length prefix and fails on values no well-formed payload
// can hold (each counted record needs at least one byte).
func (r *snapReader) count() uint64 {
	n := r.uvarint()
	if n > uint64(len(r.b)-r.off) {
		r.fail("implausible count %d at offset %d", n, r.off)
		return 0
	}
	return n
}

func (d *snapDecoder) decodeRun(sr *snapReader) (*RunData, error) {
	run := &RunData{}
	run.Name = RunName(sr.str(d.strs))
	run.Date = sr.time()
	if nch := sr.count(); nch > 0 {
		run.Channels = make([]ChannelInfo, nch-1)
		for i := range run.Channels {
			c := &run.Channels[i]
			c.Name = sr.str(d.strs)
			c.ID = sr.str(d.strs)
			c.Satellite = sr.str(d.strs)
			c.Language = sr.str(d.strs)
			if ncat := sr.count(); ncat > 0 {
				c.Categories = make([]dvb.ServiceCategory, ncat)
				for j := range c.Categories {
					c.Categories[j] = dvb.ServiceCategory(sr.str(d.strs))
				}
			}
			c.Show = sr.str(d.strs)
			c.Genre = sr.str(d.strs)
		}
	}
	if n := sr.count(); n > 0 {
		run.Cookies = make([]webos.StoredCookie, n)
		for i := range run.Cookies {
			c := &run.Cookies[i]
			c.Name = sr.str(d.strs)
			c.Value = sr.str(d.strs)
			c.Domain = sr.str(d.strs)
			c.Path = sr.str(d.strs)
			c.Expires = sr.time()
			c.Created = sr.time()
			c.HostOnly = sr.byte() == 1
			c.SetBy = sr.str(d.strs)
		}
	}
	if n := sr.count(); n > 0 {
		run.Storage = make([]webos.StorageItem, n)
		for i := range run.Storage {
			s := &run.Storage[i]
			s.Origin = sr.str(d.strs)
			s.Key = sr.str(d.strs)
			s.Value = sr.str(d.strs)
		}
	}
	if n := sr.count(); n > 0 {
		run.Screenshots = make([]webos.Screenshot, n)
		for i := range run.Screenshots {
			s := &run.Screenshots[i]
			s.Time = sr.time()
			s.Channel = sr.str(d.strs)
			s.ChannelID = sr.str(d.strs)
			s.HasSignal = sr.byte() == 1
			s.Show = sr.str(d.strs)
			if ref := sr.uvarint(); ref > 0 && sr.err == nil {
				ov, err := d.overlay(ref - 1)
				if err != nil {
					return nil, err
				}
				s.Overlay = ov
			}
		}
	}
	if n := sr.count(); n > 0 {
		run.Logs = make([]webos.LogEntry, n)
		for i := range run.Logs {
			l := &run.Logs[i]
			l.Time = sr.time()
			l.Kind = webos.LogKind(sr.str(d.strs))
			l.Detail = sr.str(d.strs)
		}
	}
	if n := sr.count(); n > 0 {
		run.Outcomes = make([]ChannelOutcome, n)
		for i := range run.Outcomes {
			o := &run.Outcomes[i]
			o.Channel = sr.str(d.strs)
			o.Status = OutcomeStatus(sr.str(d.strs))
			o.Attempts = int(sr.varint())
			o.Error = sr.str(d.strs)
		}
	}
	run.RecoveredPanics = int(sr.varint())
	if sr.err != nil {
		return nil, sr.err
	}
	nflows := sr.uvarint()
	if sr.err != nil {
		return nil, sr.err
	}
	if nflows > 0 {
		if nflows > uint64(len(sr.b)) {
			sr.fail("implausible flow count %d", nflows)
			return nil, sr.err
		}
		nchunks := int((nflows + snapFlowChunk - 1) / snapFlowChunk)
		chunks := make([][]byte, nchunks)
		for i := range chunks {
			chunks[i] = sr.bytes()
		}
		if sr.err != nil {
			return nil, sr.err
		}
		run.Flows = make([]*proxy.Flow, nflows)
		if err := d.decodeFlowChunks(run.Flows, chunks); err != nil {
			return nil, err
		}
	}
	return run, nil
}

// decodeFlowChunks fills flows from the run's length-prefixed chunks,
// fanning the chunks out over GOMAXPROCS workers. Chunk i covers flows
// [i*snapFlowChunk, ...), so workers write disjoint slices; each chunk
// allocates its own flow and URL arenas, which parallelizes even the
// zeroing of the ~200 bytes/flow of output memory.
func (d *snapDecoder) decodeFlowChunks(flows []*proxy.Flow, chunks [][]byte) error {
	decodeOne := func(dec *snapDecoder, ci int) error {
		lo := ci * snapFlowChunk
		hi := min(lo+snapFlowChunk, len(flows))
		arena := make([]proxy.Flow, hi-lo)
		urls := make([]url.URL, hi-lo)
		cr := &snapReader{b: chunks[ci]}
		for i := range arena {
			dec.decodeFlow(cr, &arena[i], &urls[i])
			if cr.err != nil {
				return cr.err
			}
			flows[lo+i] = &arena[i]
		}
		if cr.off != len(cr.b) {
			return fmt.Errorf("store: snapshot: %d stray bytes after flow chunk %d", len(cr.b)-cr.off, ci)
		}
		return nil
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > len(chunks) {
		workers = len(chunks)
	}
	if workers <= 1 {
		for ci := range chunks {
			if err := decodeOne(d, ci); err != nil {
				return err
			}
		}
		return nil
	}

	var next atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Flow decoding only reads the decoder's tables (strings,
			// blobs, built headers), so workers share d freely.
			for {
				ci := int(next.Add(1)) - 1
				if ci >= len(chunks) {
					return
				}
				if err := decodeOne(d, ci); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (d *snapDecoder) decodeFlow(sr *snapReader, f *proxy.Flow, uslot *url.URL) {
	flags := sr.byte()
	f.ID = sr.varint()
	if flags&flowFlagHasTime != 0 {
		f.Time = time.Unix(0, sr.varint()).UTC()
	}
	f.Method = sr.str(d.strs)
	if flags&flowFlagFastURL != 0 {
		uslot.Scheme = sr.str(d.strs)
		uslot.Host = sr.str(d.strs)
		uslot.Path = sr.str(d.strs)
		uslot.RawQuery = sr.str(d.strs)
	} else {
		u, err := url.Parse(sr.str(d.strs))
		if err != nil {
			sr.fail("flow url: %v", err)
			return
		}
		*uslot = *u
	}
	f.URL = uslot
	f.HTTPS = flags&flowFlagHTTPS != 0
	f.RequestHeaders = headerRef(sr, d.reqList)
	f.RequestBody = d.blob(sr)
	f.StatusCode = int(sr.varint())
	f.ResponseHeaders = headerRef(sr, d.respList)
	f.ResponseSize = sr.varint()
	f.ResponseBody = d.blob(sr)
	f.Channel = sr.str(d.strs)
	f.ChannelID = sr.str(d.strs)
	// Hostname() slices into the interned Host string, so the cached host
	// shares its backing exactly like the JSON loader's interned copy.
	f.CacheHost(f.URL.Hostname())
}

func (d *snapDecoder) blob(sr *snapReader) []byte {
	ref := sr.uvarint()
	if ref == 0 || sr.err != nil {
		return nil
	}
	if ref > uint64(len(d.blobs)) {
		sr.fail("blob ref %d out of range", ref)
		return nil
	}
	return d.blobs[ref-1]
}

// headerRef resolves a flow's header-table reference: one varint read and
// one index — the hot path a snapshot load spends most of its time on.
func headerRef(sr *snapReader, list []http.Header) http.Header {
	id := sr.uvarint()
	if sr.err != nil {
		return nil
	}
	if id >= uint64(len(list)) {
		sr.fail("header table id %d out of range", id)
		return nil
	}
	return list[id]
}

// buildHeader rebuilds a header from its flattened snapshot form, splitting
// multi-valued entries exactly like the JSON loader. Both counts are
// bounded by the bytes left, so a corrupt count fails instead of sizing a
// huge map or slice.
func (d *snapDecoder) buildHeader(sr *snapReader, withSetCookie bool) http.Header {
	n := sr.count()
	h := make(http.Header, n)
	for i := uint64(0); i < n && sr.err == nil; i++ {
		k := sr.str(d.strs)
		joined := sr.str(d.strs)
		if !strings.Contains(joined, "\n") {
			h[k] = []string{joined}
			continue
		}
		h[k] = strings.Split(joined, "\n")
	}
	if withSetCookie {
		if nsc := sr.count(); nsc > 0 && sr.err == nil {
			scs := make([]string, 0, nsc)
			for i := uint64(0); i < nsc && sr.err == nil; i++ {
				scs = append(scs, sr.str(d.strs))
			}
			h["Set-Cookie"] = scs
		}
	}
	return h
}
