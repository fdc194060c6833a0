package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	tkc "temporalkcore"
	"temporalkcore/internal/gen"
	"temporalkcore/internal/kcore"
	"temporalkcore/internal/tgraph"
)

// Input files of one generated workload. The generator writes them; the
// measured process only reads them.
const (
	edgesFile = "edges.bin"
	planFile  = "plan.json"
	hashFile  = "inputs.sha256"

	edgesMagic = "PBEDGES1"

	// replicaSeed fixes the dataset replicas (the seed every other tool
	// of the repository uses), so --seed varies the operations and not
	// the graph.
	replicaSeed = 1
)

// op is one operation of a workload's closed loop.
type op struct {
	Kind string `json:"kind"`         // "query" or "append"
	W    int    `json:"w,omitempty"`  // query: index into plan.Windows
	Lo   int    `json:"lo,omitempty"` // append: the edges [Lo, Hi) of edges.bin
	Hi   int    `json:"hi,omitempty"`
}

// plan is a workload's seeded operation sequence.
type plan struct {
	Workload  string     `json:"workload"`
	Seed      int64      `json:"seed"`
	Seconds   int        `json:"seconds"`
	Dataset   string     `json:"dataset"`
	KMax      int        `json:"kmax"`
	K         int        `json:"k"`
	Bootstrap int        `json:"bootstrap,omitempty"` // ingest-serve: leading edges bootstrapped
	Shards    int        `json:"shards,omitempty"`    // sharded-count: initial shard count
	Windows   [][2]int64 `json:"windows"`             // raw inclusive [start, end]
	Straddle  []bool     `json:"straddle,omitempty"`  // sharded-count: window crosses a shard cut
	Ops       []op       `json:"ops"`
	Check     []int      `json:"check"` // op indices checked against an independent engine
}

// replica generates a dataset replica at its published size.
func replica(code string) (*tgraph.Graph, int, error) {
	rep, err := gen.ReplicaByCode(code)
	if err != nil {
		return nil, 0, err
	}
	g, err := rep.Generate(rep.Paper.Edges, replicaSeed)
	if err != nil {
		return nil, 0, err
	}
	return g, kcore.KMax(g), nil
}

// kOf is the query k for a percentage of kmax (at least 2).
func kOf(kmax, pct int) int { return max(2, kmax*pct/100) }

// sample draws n distinct indices of [0, m) in ascending order.
func sample(r *rand.Rand, m, n int) []int {
	if n > m {
		n = m
	}
	idx := r.Perm(m)[:n]
	sort.Ints(idx)
	return idx
}

// writeInputs stores a workload's edge list and plan in dir and returns
// the hash of the two files.
func writeInputs(dir string, g *tgraph.Graph, p *plan) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	if err := writeEdges(filepath.Join(dir, edgesFile), g); err != nil {
		return "", err
	}
	b, err := json.Marshal(p)
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(filepath.Join(dir, planFile), b, 0o644); err != nil {
		return "", err
	}
	sum, err := hashInputs(dir)
	if err != nil {
		return "", err
	}
	return sum, os.WriteFile(filepath.Join(dir, hashFile), []byte(sum+"\n"), 0o644)
}

// writeEdges stores g's edges in time order as little-endian int64
// (u, v, t) triples after a magic and a count.
func writeEdges(path string, g *tgraph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	bw.WriteString(edgesMagic)
	var buf [24]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(g.NumEdges()))
	bw.Write(buf[:8])
	for _, e := range g.Edges() {
		binary.LittleEndian.PutUint64(buf[0:], uint64(g.Label(e.U)))
		binary.LittleEndian.PutUint64(buf[8:], uint64(g.Label(e.V)))
		binary.LittleEndian.PutUint64(buf[16:], uint64(g.RawTime(e.T)))
		bw.Write(buf[:])
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// loadEdges reads an edge file written by writeEdges.
func loadEdges(path string) ([]tkc.Edge, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(b) < len(edgesMagic)+8 || string(b[:len(edgesMagic)]) != edgesMagic {
		return nil, fmt.Errorf("%s: not an edge file", path)
	}
	b = b[len(edgesMagic):]
	n := binary.LittleEndian.Uint64(b)
	b = b[8:]
	if uint64(len(b)) != 24*n {
		return nil, fmt.Errorf("%s: %d bytes for %d edges", path, len(b), n)
	}
	edges := make([]tkc.Edge, n)
	for i := range edges {
		p := b[24*i:]
		edges[i] = tkc.Edge{
			U:    int64(binary.LittleEndian.Uint64(p)),
			V:    int64(binary.LittleEndian.Uint64(p[8:])),
			Time: int64(binary.LittleEndian.Uint64(p[16:])),
		}
	}
	return edges, nil
}

// hashInputs is the SHA-256 over the edge file followed by the plan.
func hashInputs(dir string) (string, error) {
	h := sha256.New()
	for _, name := range []string{edgesFile, planFile} {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// loadPlan reads a generated plan and checks that the inputs on disk are
// the ones the generator hashed.
func loadPlan(dir string) (*plan, string, error) {
	want, err := os.ReadFile(filepath.Join(dir, hashFile))
	if err != nil {
		return nil, "", fmt.Errorf("inputs not generated: %w", err)
	}
	sum, err := hashInputs(dir)
	if err != nil {
		return nil, "", err
	}
	if sum+"\n" != string(want) {
		return nil, "", fmt.Errorf("inputs in %s changed since they were generated", dir)
	}
	b, err := os.ReadFile(filepath.Join(dir, planFile))
	if err != nil {
		return nil, "", err
	}
	var p plan
	if err := json.Unmarshal(b, &p); err != nil {
		return nil, "", fmt.Errorf("%s: %w", planFile, err)
	}
	return &p, sum, nil
}
