package obs

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// Manifest is the run-provenance block embedded in metrics snapshots
// and benchmark documents: enough environment to tell whether two
// numbers were measured under comparable conditions, and enough input
// identity (spec hash, seed) to reproduce the run.
type Manifest struct {
	// Tool names the producing binary ("netsim", "benchjson", ...).
	Tool string `json:"tool,omitempty"`
	// GoVersion / GOOS / GOARCH / NumCPU describe the build and host.
	GoVersion string `json:"goVersion"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"numCPU"`
	// CPUModel is the host CPU model string when the platform exposes
	// one (best-effort; empty elsewhere).
	CPUModel string `json:"cpuModel,omitempty"`
	// Module is the main module path@version from build info;
	// VCSRevision the embedded VCS commit, when stamped.
	Module      string `json:"module,omitempty"`
	VCSRevision string `json:"vcsRevision,omitempty"`
	// Timestamp is the manifest creation instant, RFC3339 UTC.
	Timestamp string `json:"timestamp,omitempty"`
	// SpecPath / SpecSHA256 identify the declarative input file the run
	// executed, when there was one.
	SpecPath   string `json:"specPath,omitempty"`
	SpecSHA256 string `json:"specSHA256,omitempty"`
	// Seed is the base RNG seed, when one governed the run.
	Seed *uint64 `json:"seed,omitempty"`
	// Shard is the distributed-sweep partition this run executed
	// ("i/n"), when the run was sharded.
	Shard string `json:"shard,omitempty"`
	// WallSeconds is the run's wall-clock duration; VirtualTime the
	// total simulated time across all replications.
	WallSeconds float64 `json:"wallSeconds,omitempty"`
	VirtualTime float64 `json:"virtualTime,omitempty"`
	// ShardGroups / ShardSubtrees / CutFrontier record the execution
	// decomposition the run's memory plan chose: independent
	// session-group engines, intra-session subtrees cut by
	// netsim.Config.CutLinks, and the cut-edge count of the frontier (equal to
	// ShardSubtrees by construction — one cut edge enters each subtree).
	// All zero when the run was sequential.
	ShardGroups   int `json:"shardGroups,omitempty"`
	ShardSubtrees int `json:"shardSubtrees,omitempty"`
	CutFrontier   int `json:"cutFrontier,omitempty"`
	// MaxRSSBytes is the process's kernel-reported peak resident set
	// size at snapshot time (ReadPeakRSS; 0 = not measured), and
	// HeapSysBytes the Go heap address space obtained from the OS
	// (ReadHeapSys) — the two numbers the planetary-scale memory budget
	// is audited against.
	MaxRSSBytes  int64 `json:"maxRSSBytes,omitempty"`
	HeapSysBytes int64 `json:"heapSysBytes,omitempty"`
}

// NewManifest fills the environment fields: go version, GOOS/GOARCH,
// CPU count and model, module version and VCS revision, timestamp.
// Input-identity fields (spec, seed, durations) are the caller's.
func NewManifest(tool string) Manifest {
	m := Manifest{
		Tool:      tool,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		CPUModel:  cpuModel(),
		Timestamp: time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		m.Module = bi.Main.Path
		if bi.Main.Version != "" && bi.Main.Version != "(devel)" {
			m.Module += "@" + bi.Main.Version
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.VCSRevision = s.Value
			}
		}
	}
	return m
}

// SetSpec records the declarative input file's path and content hash.
// Nil-receiver safe, like SetSeed, so callers can chain off accessors
// that return nil before observability starts.
func (m *Manifest) SetSpec(path string, data []byte) {
	if m == nil {
		return
	}
	sum := sha256.Sum256(data)
	m.SpecPath = path
	m.SpecSHA256 = hex.EncodeToString(sum[:])
}

// SetSeed records the base RNG seed.
func (m *Manifest) SetSeed(seed uint64) {
	if m == nil {
		return
	}
	m.Seed = &seed
}

// SetDecomposition records the engine decomposition the run executed
// under: group engines, subtree partitions, and the cut-frontier size.
func (m *Manifest) SetDecomposition(groups, subtrees, cutFrontier int) {
	if m == nil {
		return
	}
	m.ShardGroups = groups
	m.ShardSubtrees = subtrees
	m.CutFrontier = cutFrontier
}

// SetShard records the distributed-sweep partition ("i/n").
func (m *Manifest) SetShard(shard string) {
	if m == nil {
		return
	}
	m.Shard = shard
}

// WriteComment writes the manifest as one "# manifest: {...}" line —
// provenance that rides along inside Prometheus text exposition, whose
// scrapers treat non-HELP/TYPE comment lines as ignorable.
func (m *Manifest) WriteComment(w io.Writer) error {
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "# manifest: %s\n", b)
	return err
}

// cpuModel reads the host CPU model string where the platform exposes
// one (/proc/cpuinfo on Linux); best-effort, "" on any failure.
func cpuModel() string {
	if runtime.GOOS != "linux" {
		return ""
	}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok {
			if strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return ""
}
