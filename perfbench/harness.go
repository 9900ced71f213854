package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"bytebrain"
	"bytebrain/internal/logstore"
	"bytebrain/internal/netingest"
)

const (
	topic = "bench"
	// segmentBytes is the compacting store's block size: small enough
	// that blocks keep sealing while a run ingests.
	segmentBytes = 128 << 10
	// trainEvery is the service's default TrainVolume. The benchmark
	// calls Service.Train itself at this cadence so that every run
	// trains the same number of times on the same lines.
	trainEvery = 10000
	// frameLines and window are the closed-loop TCP client's shape.
	frameLines = 250
	window     = 8
	// lineStep is how far the synthetic clock moves per ingested line.
	lineStep = 10 * time.Millisecond
)

// epoch is where every run's synthetic clock starts.
var epoch = time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)

// simClock is the service's clock: the benchmark sets it, so record
// timestamps come from the inputs rather than from the wall clock.
type simClock struct{ ns atomic.Int64 }

func (c *simClock) now() time.Time          { return time.Unix(0, c.ns.Load()).UTC() }
func (c *simClock) set(t time.Time)         { c.ns.Store(t.UnixNano()) }
func (c *simClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

// harness is one service under test: a compacting store in its own data
// directory, the TCP ingest listener, and one framed connection to it.
type harness struct {
	dir   string
	clock *simClock
	svc   *bytebrain.Service
	conn  *frameConn
}

// startHarness creates the service the way the daemon runs it, except
// that volume and interval training are out of reach: the benchmark
// calls Train itself so that runs stay comparable.
func startHarness(workDir string) (*harness, error) {
	dir, err := os.MkdirTemp(workDir, "svc-")
	if err != nil {
		return nil, err
	}
	h := &harness{dir: dir, clock: &simClock{}}
	h.clock.set(epoch)
	h.svc = bytebrain.NewService(bytebrain.ServiceConfig{
		TrainVolume:   math.MaxInt,
		TrainInterval: time.Duration(math.MaxInt64),
		DataDir:       dir,
		SegmentBytes:  segmentBytes,
		Now:           h.clock.now,
	})
	if err := h.svc.CreateTopic(topic); err != nil {
		h.close()
		return nil, err
	}
	addr, err := h.svc.StartNetIngest("127.0.0.1:0")
	if err != nil {
		h.close()
		return nil, err
	}
	if h.conn, err = dialFrames(addr.String()); err != nil {
		h.close()
		return nil, err
	}
	return h, nil
}

// close stops the connection and the service and removes the data.
func (h *harness) close() error {
	var first error
	if h.conn != nil {
		first = h.conn.close()
	}
	if h.svc != nil {
		if err := h.svc.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := os.RemoveAll(h.dir); err != nil && first == nil {
		first = err
	}
	return first
}

// storedBytes is the on-disk size of the topic's record store.
func (h *harness) storedBytes() (int64, error) {
	var n int64
	err := filepath.WalkDir(filepath.Join(h.dir, topic, "records"), func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// finish ends a service workload: it reports the records still
// unsealed, seals the rest, reports what the store then holds on disk
// per raw byte, and checks that it holds exactly lines [0, acked) of in.
func (h *harness) finish(r *run, in *stream, acked int) error {
	store, err := h.svc.Store(topic)
	if err != nil {
		return err
	}
	cs, ok := store.(logstore.Compactor)
	if !ok {
		return fmt.Errorf("topic store %T is not the compacting store", store)
	}
	r.set("logstore.unsealed_records_end", float64(cs.SegmentStats().HotRecords))
	if err := h.svc.Compact(topic); err != nil {
		return err
	}
	disk, err := h.storedBytes()
	if err != nil {
		return err
	}
	r.set("stored_bytes_per_raw_byte", ratio(float64(disk), float64(in.rawBytes(0, acked))))
	r.set("segment.compression_ratio", cs.SegmentStats().Ratio())
	// Each BUSY ack is a refused send: a failed operation.
	for i := int64(0); i < h.conn.busy; i++ {
		r.op(false)
	}
	return checkStored(r, h.svc, in, acked, h.conn.busy)
}

// checkStored verifies acked ⇒ stored exactly once: the store holds
// exactly the acked lines, and a seeded sample of offsets reads back
// the lines that were sent there.
func checkStored(r *run, svc *bytebrain.Service, in *stream, acked int, busy int64) error {
	store, err := svc.Store(topic)
	if err != nil {
		return err
	}
	r.verify("stored_equals_acked", store.Len() == acked, "store Len %d, acked %d", store.Len(), acked)
	if busy > 0 {
		// A BUSY resend can reorder frames, so offsets no longer map to
		// send order; the BUSY acks already count as failures.
		r.verify("no_busy_acks", false, "%d BUSY acks", busy)
		return nil
	}
	rng := rand.New(rand.NewSource(r.seed))
	offs := make([]int64, 0, 2000)
	for i := 0; i < cap(offs); i++ {
		offs = append(offs, rng.Int63n(int64(acked)))
	}
	recs, err := svc.Records(topic, offs)
	if err != nil {
		return err
	}
	bad := 0
	for i, rec := range recs {
		if rec.Raw != in.lines[offs[i]] || rec.Offset != offs[i] {
			bad++
		}
	}
	r.verify("sampled_offsets_read_back", len(recs) == len(offs) && bad == 0, "%d of %d sampled offsets differ", bad, len(offs))
	return nil
}

// frameConn is a framed-mode netingest connection that times every
// frame from its first write to its OK ack. Unlike netingest.Client it
// exposes each ack, which the latency metrics need. Not safe for
// concurrent use.
type frameConn struct {
	c       net.Conn
	bw      *bufio.Writer
	br      *bufio.Reader
	seq     uint32
	pending map[uint32]*pendingFrame
	busy    int64 // BUSY acks seen (each one resent)
}

type pendingFrame struct {
	data  []byte
	lines int
	due   time.Time // latency is measured from here
	span  int64
}

// ack is one resolved frame.
type ack struct {
	lines   int
	latency time.Duration
	span    int64
	at      time.Time
}

func dialFrames(addr string) (*frameConn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	f := &frameConn{c: c, bw: bufio.NewWriterSize(c, 64<<10), br: bufio.NewReaderSize(c, 4<<10), pending: map[uint32]*pendingFrame{}}
	if _, err := f.bw.WriteString(netingest.MagicFramed); err != nil {
		c.Close()
		return nil, err
	}
	return f, nil
}

// send encodes lines into one frame and writes it out. due is when the
// frame was due to be sent; span is the caller's trace span for it.
func (f *frameConn) send(lines []string, due time.Time, span int64) error {
	data, err := netingest.AppendFrame(nil, f.seq, topic, lines)
	if err != nil {
		return err
	}
	f.pending[f.seq] = &pendingFrame{data: data, lines: len(lines), due: due, span: span}
	f.seq++
	if _, err := f.bw.Write(data); err != nil {
		return err
	}
	return f.bw.Flush()
}

// awaitAck reads acks until one frame resolves OK. A BUSY ack resends
// the frame and keeps waiting; an ERR ack is an error.
func (f *frameConn) awaitAck() (ack, error) {
	for {
		var a [netingest.AckSize]byte
		if _, err := io.ReadFull(f.br, a[:]); err != nil {
			return ack{}, fmt.Errorf("reading ack: %w", err)
		}
		at := time.Now()
		seq := binary.LittleEndian.Uint32(a[0:4])
		p, ok := f.pending[seq]
		if !ok {
			return ack{}, fmt.Errorf("ack for unknown frame %d", seq)
		}
		switch a[4] {
		case netingest.StatusOK:
			delete(f.pending, seq)
			return ack{lines: p.lines, latency: at.Sub(p.due), span: p.span, at: at}, nil
		case netingest.StatusBusy:
			f.busy++
			if _, err := f.bw.Write(p.data); err != nil {
				return ack{}, err
			}
			if err := f.bw.Flush(); err != nil {
				return ack{}, err
			}
		default:
			return ack{}, fmt.Errorf("frame %d rejected with status %d", seq, a[4])
		}
	}
}

func (f *frameConn) close() error { return f.c.Close() }

// scrape is one read of the service's metrics registry, keyed by the
// exposition series ("bb_wal_fsyncs_total{topic=\"bench\"}").
type scrape map[string]float64

func scrapeRegistry(svc *bytebrain.Service) (scrape, error) {
	var buf bytes.Buffer
	if err := svc.Registry().WritePrometheus(&buf); err != nil {
		return nil, err
	}
	s := scrape{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("registry line %q: %w", line, err)
		}
		s[line[:i]] = v
	}
	return s, nil
}

// topicSeries names a per-topic series of family name.
func topicSeries(name string) string { return name + `{topic="` + topic + `"}` }

// delta returns after-before for a series.
func delta(before, after scrape, series string) float64 { return after[series] - before[series] }

// heapBytes is the live heap after a forced collection.
func heapBytes() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// memCounters snapshots cumulative allocation and GC counts.
func memCounters() (alloc uint64, gcs uint32) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc, ms.NumGC
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
