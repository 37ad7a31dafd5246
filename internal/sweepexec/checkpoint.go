package sweepexec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"

	"mlfair/internal/results"
	"mlfair/internal/scenario"
)

// The checkpoint file records a sweep shard's durable progress: which
// (point, replication) cells have been committed, and how many spill
// shards hold their rows. Commits follow a crash-safe protocol — the
// spill shard(s) are renamed into place first, then the checkpoint is
// rewritten (temp file + atomic rename). A crash between the two
// leaves an orphan spill beyond the checkpoint's Spills count, which a
// resume ignores and the next commit overwrites, so the checkpoint's
// cell list always describes exactly the union of spills 0..Spills-1.
//
// Layout (all integers little-endian):
//
//	magic       [8]byte  "MLFCKPT1"
//	length      uint64   whole-section byte count, magic through checksum
//	schemaHash  uint64   results.SchemaHash of the sweep's axes/outputs
//	sweepHash   uint64   SweepHash of the sweep definition
//	shardIndex  uint32   this process's shard
//	shardCount  uint32   total shards (>= 1)
//	totalPoints uint64   the sweep's full point count
//	nSpills     uint32   committed spill shards
//	nCells      uint32   then per cell: pointID uint32, rep uint32
//	checksum    uint32   CRC-32 (IEEE) of every preceding section byte
//
// ReadCheckpoint rejects — with an error, never a panic — truncation,
// flipped bytes, out-of-range headers, duplicate cells, and cells
// outside the declared point range or shard.

// checkpointMagic identifies (and versions) the checkpoint format.
var checkpointMagic = [8]byte{'M', 'L', 'F', 'C', 'K', 'P', 'T', '1'}

const (
	// checkpointFile is the checkpoint's name inside its directory.
	checkpointFile = "sweep.ckpt"
	// maxCheckpointSection bounds a declared section length.
	maxCheckpointSection = 1 << 31
	// minCheckpointSection is the encoded size of an empty checkpoint.
	minCheckpointSection = 16 + 8 + 8 + 4 + 4 + 8 + 4 + 4 + 4
)

// Cell identifies one (point, replication) observation.
type Cell struct {
	Point int
	Rep   int
}

// Checkpoint is a sweep shard's decoded durable state.
type Checkpoint struct {
	// SchemaHash fingerprints the result schema (axes and output
	// metrics); SweepHash fingerprints the whole sweep definition. Both
	// must match before a resume may reuse spilled rows.
	SchemaHash uint64
	SweepHash  uint64
	// ShardIndex / ShardCount name the point partition this checkpoint
	// covers (point id mod ShardCount == ShardIndex).
	ShardIndex int
	ShardCount int
	// TotalPoints is the sweep's full (all-shard) point count.
	TotalPoints int
	// Spills counts committed spill shard files; the checkpoint covers
	// spill-000000 .. spill-(Spills-1) and nothing beyond.
	Spills int
	// Cells lists every committed (point, replication) cell — exactly
	// the union of the covered spill shards' observations.
	Cells []Cell
}

// SweepHash fingerprints a sweep definition: FNV-1a over its canonical
// encoding. A checkpoint taken under one sweep can never resume under
// an edited one.
func SweepHash(sw *scenario.Sweep) (uint64, error) {
	var buf bytes.Buffer
	if err := sw.Encode(&buf); err != nil {
		return 0, err
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	return h.Sum64(), nil
}

// encode serializes the checkpoint (see the format comment above).
func (c *Checkpoint) encode() []byte {
	var buf bytes.Buffer
	buf.Write(checkpointMagic[:])
	putU64(&buf, 0) // length, patched below
	putU64(&buf, c.SchemaHash)
	putU64(&buf, c.SweepHash)
	putU32(&buf, uint32(c.ShardIndex))
	putU32(&buf, uint32(c.ShardCount))
	putU64(&buf, uint64(c.TotalPoints))
	putU32(&buf, uint32(c.Spills))
	putU32(&buf, uint32(len(c.Cells)))
	for _, cell := range c.Cells {
		putU32(&buf, uint32(cell.Point))
		putU32(&buf, uint32(cell.Rep))
	}
	b := buf.Bytes()
	binary.LittleEndian.PutUint64(b[8:], uint64(len(b)+4)) // include checksum
	putU32(&buf, crc32.ChecksumIEEE(buf.Bytes()))
	return buf.Bytes()
}

// ReadCheckpoint reads and validates one checkpoint. Any deviation
// from the format — truncation, a flipped byte, duplicate cells, cells
// outside the declared point range or shard — returns an error; it
// never panics and never yields a checkpoint that could silently merge
// wrong state.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	head := make([]byte, 16)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("sweepexec: checkpoint header: %w", err)
	}
	if !bytes.Equal(head[:8], checkpointMagic[:]) {
		return nil, fmt.Errorf("sweepexec: bad checkpoint magic %q", head[:8])
	}
	length := binary.LittleEndian.Uint64(head[8:])
	if length < minCheckpointSection || length > maxCheckpointSection {
		return nil, fmt.Errorf("sweepexec: checkpoint length %d out of range", length)
	}
	rest, err := io.ReadAll(io.LimitReader(r, int64(length-16)))
	if err != nil {
		return nil, fmt.Errorf("sweepexec: checkpoint body: %w", err)
	}
	if uint64(len(rest)) != length-16 {
		return nil, fmt.Errorf("sweepexec: checkpoint truncated: %d of %d body bytes", len(rest), length-16)
	}
	body, sum := rest[:len(rest)-4], binary.LittleEndian.Uint32(rest[len(rest)-4:])
	crc := crc32.ChecksumIEEE(head)
	crc = crc32.Update(crc, crc32.IEEETable, body)
	if crc != sum {
		return nil, fmt.Errorf("sweepexec: checkpoint checksum mismatch (stored %08x, computed %08x)", sum, crc)
	}
	c := &cursor{b: body}
	ck := &Checkpoint{
		SchemaHash: c.u64(),
		SweepHash:  c.u64(),
	}
	shardIndex := c.u32()
	shardCount := c.u32()
	totalPoints := c.u64()
	spills := c.u32()
	nCells := c.u32()
	if c.err != nil {
		return nil, c.err
	}
	if shardCount < 1 || shardIndex >= shardCount {
		return nil, fmt.Errorf("sweepexec: checkpoint shard %d/%d invalid", shardIndex, shardCount)
	}
	if totalPoints > math.MaxInt32 {
		return nil, fmt.Errorf("sweepexec: checkpoint point count %d out of range", totalPoints)
	}
	ck.ShardIndex, ck.ShardCount = int(shardIndex), int(shardCount)
	ck.TotalPoints = int(totalPoints)
	ck.Spills = int(spills)
	seen := make(map[Cell]bool, min(int(nCells), 4096))
	ck.Cells = make([]Cell, 0, min(int(nCells), 4096))
	for i := uint32(0); i < nCells && c.err == nil; i++ {
		point := c.u32()
		rep := c.u32()
		if c.err != nil {
			break
		}
		if uint64(point) >= totalPoints {
			return nil, fmt.Errorf("sweepexec: checkpoint cell references point %d of %d", point, totalPoints)
		}
		if point%shardCount != shardIndex {
			return nil, fmt.Errorf("sweepexec: checkpoint cell point %d outside shard %d/%d", point, shardIndex, shardCount)
		}
		if rep > math.MaxInt32 {
			return nil, fmt.Errorf("sweepexec: checkpoint cell replication %d out of range", rep)
		}
		cell := Cell{Point: int(point), Rep: int(rep)}
		if seen[cell] {
			return nil, fmt.Errorf("sweepexec: checkpoint records cell (%d, %d) twice", cell.Point, cell.Rep)
		}
		seen[cell] = true
		ck.Cells = append(ck.Cells, cell)
	}
	if c.err != nil {
		return nil, c.err
	}
	if c.off != len(body) {
		return nil, fmt.Errorf("sweepexec: checkpoint has %d trailing bytes", len(body)-c.off)
	}
	return ck, nil
}

// LoadCheckpoint reads dir's checkpoint file.
func LoadCheckpoint(dir string) (*Checkpoint, error) {
	f, err := os.Open(filepath.Join(dir, checkpointFile))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCheckpoint(f)
}

// restore merges the checkpoint's covered spill shards into sim (and
// bench, when non-nil) and cross-checks the restored observation set
// against the checkpoint's cell list — a spill/checkpoint disagreement
// means a corrupt directory and must not silently resume.
func restore(dir string, ck *Checkpoint, sim, bench *results.Store) error {
	for n := 0; n < ck.Spills; n++ {
		if err := mergeSpill(spillPath(dir, n, "sim"), sim); err != nil {
			return err
		}
		if bench != nil {
			if err := mergeSpill(spillPath(dir, n, "bench"), bench); err != nil {
				return err
			}
		}
	}
	if got := sim.NumObservations(); got != len(ck.Cells) {
		return fmt.Errorf("sweepexec: checkpoint records %d cells but spills carry %d", len(ck.Cells), got)
	}
	seen := map[Cell]bool{}
	for _, id := range sim.Points() {
		reps, err := sim.ObservedReps(id)
		if err != nil {
			return err
		}
		for _, r := range reps {
			seen[Cell{Point: id, Rep: r}] = true
		}
	}
	for _, cell := range ck.Cells {
		if !seen[cell] {
			return fmt.Errorf("sweepexec: checkpoint cell (%d, %d) missing from spill shards", cell.Point, cell.Rep)
		}
	}
	return nil
}

func mergeSpill(path string, dst *results.Store) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sh, err := results.ReadShard(f)
	if err != nil {
		return fmt.Errorf("sweepexec: %s: %w", path, err)
	}
	if err := dst.Merge(sh); err != nil {
		return fmt.Errorf("sweepexec: %s: %w", path, err)
	}
	return nil
}

func spillPath(dir string, n int, kind string) string {
	return filepath.Join(dir, fmt.Sprintf("spill-%06d.%s.shard", n, kind))
}

// checkpointer accumulates not-yet-durable observations and commits
// them: spill shard(s) first, checkpoint last, each via temp file +
// atomic rename. Callers serialize access (the scheduler lock).
type checkpointer struct {
	dir        string
	ck         Checkpoint
	axes, outs []string
	bench      bool
	// spills and cells mirror this run's commit count and the
	// checkpoint's cell count for progress snapshots, which read them
	// outside the scheduler lock.
	spills, cells atomic.Int64

	pendSim   *results.Store
	pendBench *results.Store
	pendCells []Cell
}

func newCheckpointer(dir string, ck Checkpoint, sw *scenario.Sweep) (*checkpointer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c := &checkpointer{dir: dir, ck: ck, axes: sw.AxisFields(), outs: sw.OutputColumns(), bench: sw.Benchmark}
	c.cells.Store(int64(len(ck.Cells)))
	return c, c.resetPending()
}

// progress returns ob with the checkpoint's counters added to every
// progress snapshot (ob itself when it reports no progress).
func (c *checkpointer) progress(ob *scenario.Observe) *scenario.Observe {
	if ob == nil || ob.Progress == nil {
		return ob
	}
	o := *ob
	o.Progress = func(p scenario.SweepProgress) {
		p.SpilledShards, p.CheckpointedCells = int(c.spills.Load()), int(c.cells.Load())
		ob.Progress(p)
	}
	return &o
}

func (c *checkpointer) resetPending() error {
	var err error
	if c.pendSim, err = results.New(c.axes, c.outs); err != nil {
		return err
	}
	c.pendBench = nil
	if c.bench {
		if c.pendBench, err = results.New(c.axes, scenario.BenchmarkColumns); err != nil {
			return err
		}
	}
	c.pendCells = c.pendCells[:0]
	return nil
}

// pending counts not-yet-committed simulated cells.
func (c *checkpointer) pending() int { return len(c.pendCells) }

// observe stages one simulated cell for the next commit.
func (c *checkpointer) observe(id int, coords []string, reps, rep int, row []float64) error {
	if _, err := c.pendSim.Reps(id); err != nil {
		if err := c.pendSim.AddPoint(id, coords, reps); err != nil {
			return err
		}
	}
	if err := c.pendSim.Observe(id, rep, row...); err != nil {
		return err
	}
	c.pendCells = append(c.pendCells, Cell{Point: id, Rep: rep})
	return nil
}

// benchRow stages one point's benchmark row for the next commit.
func (c *checkpointer) benchRow(id int, coords []string, row []float64) error {
	if _, err := c.pendBench.Reps(id); err != nil {
		if err := c.pendBench.AddPoint(id, coords, 1); err != nil {
			return err
		}
	}
	return c.pendBench.Observe(id, 0, row...)
}

// commit makes the pending observations durable (a no-op when nothing
// is pending): spill rename(s) first, checkpoint rename last, so a
// crash at any instant leaves either the previous durable state or the
// new one — never a checkpoint describing cells it cannot restore.
func (c *checkpointer) commit() error {
	if len(c.pendCells) == 0 && (c.pendBench == nil || c.pendBench.NumObservations() == 0) {
		return nil
	}
	var buf bytes.Buffer
	if err := results.WriteShard(&buf, c.pendSim); err != nil {
		return err
	}
	if err := writeFileAtomic(spillPath(c.dir, c.ck.Spills, "sim"), buf.Bytes()); err != nil {
		return err
	}
	if c.bench {
		buf.Reset()
		if err := results.WriteShard(&buf, c.pendBench); err != nil {
			return err
		}
		if err := writeFileAtomic(spillPath(c.dir, c.ck.Spills, "bench"), buf.Bytes()); err != nil {
			return err
		}
	}
	c.ck.Spills++
	c.ck.Cells = append(c.ck.Cells, c.pendCells...)
	if err := writeFileAtomic(filepath.Join(c.dir, checkpointFile), c.ck.encode()); err != nil {
		return err
	}
	c.spills.Add(1)
	c.cells.Store(int64(len(c.ck.Cells)))
	return c.resetPending()
}

func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// cursor is a bounds-checked little-endian reader over a checkpoint
// body; the first overrun latches err and zeroes every later read.
type cursor struct {
	b   []byte
	off int
	err error
}

func (c *cursor) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || c.off+n > len(c.b) || c.off+n < c.off {
		c.err = fmt.Errorf("sweepexec: checkpoint truncated at byte %d", c.off)
		return nil
	}
	b := c.b[c.off : c.off+n]
	c.off += n
	return b
}

func (c *cursor) u32() uint32 {
	b := c.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (c *cursor) u64() uint64 {
	b := c.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func putU32(buf *bytes.Buffer, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	buf.Write(b[:])
}

func putU64(buf *bytes.Buffer, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	buf.Write(b[:])
}
