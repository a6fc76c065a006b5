package query

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/wire"
)

// GenerationStore persists per-dataset invalidation generations so
// Snapshot.Seq equality survives process restarts: a restarted node
// that reloads generation G for a dataset derives the same Seq for
// every key as it did before the restart, which is what lets it serve
// its disk-cached snapshots — and trust peer-pushed ones — without
// re-analyzing. Implementations must be safe for concurrent use.
type GenerationStore interface {
	// Load returns every persisted (dataset, generation) pair.
	Load() (map[string]uint64, error)
	// Save durably records one dataset's generation. Saves are
	// monotonic per dataset: a Save with a generation at or below the
	// stored one is a no-op, so racing persists can never regress the
	// durable state.
	Save(dataset string, gen uint64) error
}

const (
	genMagic   = "SFGE"
	genVersion = 1
	// genSection carries the generation table payload.
	genSection = "gens"
	// maxGenFileBytes bounds the file a node will load: the table holds
	// one short name and one integer per dataset, so anything near the
	// cap is corruption.
	maxGenFileBytes = 1 << 20
	// maxDatasetNameBytes bounds one dataset name on decode.
	maxDatasetNameBytes = 4 << 10
)

// GenerationFile is the GenerationStore cmd/serve wires under
// -store-dir: one small wire-format file holding the whole generation
// table, rewritten atomically (temp file + rename, same directory) on
// every change — a crash between Saves leaves the previous complete
// table, never a torn one. A file that fails to decode is quarantined
// (renamed corrupt-<name>) and the table restarts empty, matching the
// DiskStore's treatment of corrupt snapshots; the cost is re-analysis,
// not refusal to start.
type GenerationFile struct {
	path string

	mu   sync.Mutex
	gens map[string]uint64
}

// NewGenerationFile opens (creating the directory for, if needed) the
// generation table at path and loads whatever it holds.
func NewGenerationFile(path string) (*GenerationFile, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("query: creating generation dir: %w", err)
	}
	g := &GenerationFile{path: path, gens: make(map[string]uint64)}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return g, nil
	}
	if err != nil {
		return nil, fmt.Errorf("query: reading generation file: %w", err)
	}
	gens, derr := decodeGenerations(data)
	if derr != nil {
		quarantined := filepath.Join(filepath.Dir(path), corruptPrefix+filepath.Base(path))
		if rerr := os.Rename(path, quarantined); rerr != nil {
			os.Remove(path)
		}
		log.Printf("query: quarantined corrupt generation file %s: %v", path, derr)
		return g, nil
	}
	g.gens = gens
	return g, nil
}

// Load implements GenerationStore from the in-memory table (the file
// was read at construction; Save keeps the two in step).
func (g *GenerationFile) Load() (map[string]uint64, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[string]uint64, len(g.gens))
	for name, gen := range g.gens {
		out[name] = gen
	}
	return out, nil
}

// Save implements GenerationStore: update the table (monotonically)
// and rewrite the file atomically. The whole operation runs under the
// store's own mutex — not the engine's genMu — so a slow disk never
// blocks generation reads at analysis start, and two racing Saves
// serialize here with the monotonic guard deciding who wins.
func (g *GenerationFile) Save(dataset string, gen uint64) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if gen <= g.gens[dataset] {
		return nil
	}
	g.gens[dataset] = gen
	data := encodeGenerations(g.gens)
	dir := filepath.Dir(g.path)
	tmp, err := os.CreateTemp(dir, "tmp-gens-*")
	if err != nil {
		return fmt.Errorf("query: persisting generations: %w", err)
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr == nil && cerr == nil {
		if err := os.Rename(tmp.Name(), g.path); err == nil {
			return nil
		}
	}
	os.Remove(tmp.Name())
	return fmt.Errorf("query: persisting generations: write %v, close %v", werr, cerr)
}

func encodeGenerations(gens map[string]uint64) []byte {
	p := &wire.Payload{}
	p.PutUint64(uint64(len(gens)))
	for name, gen := range gens {
		p.PutString(name)
		p.PutUint64(gen)
	}
	var buf bytes.Buffer
	w, err := wire.NewWriter(&buf, genMagic, genVersion)
	if err == nil {
		err = w.Section(genSection, p.Bytes())
	}
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		panic(fmt.Sprintf("query: encoding generations: %v", err))
	}
	return buf.Bytes()
}

func decodeGenerations(data []byte) (map[string]uint64, error) {
	if len(data) > maxGenFileBytes {
		return nil, fmt.Errorf("query: generation file is %d bytes (max %d)", len(data), maxGenFileBytes)
	}
	s, err := wire.Walk(data, genMagic, genVersion)
	if err != nil {
		return nil, err
	}
	for s.Next() {
		if s.Tag() == genSection {
			return decodeGenerationPayload(wire.NewPayload(s.Payload()))
		}
	}
	if err := s.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("query: generation file has no %q section", genSection)
}

func decodeGenerationPayload(p *wire.Payload) (map[string]uint64, error) {
	count, err := p.Uint64()
	if err != nil {
		return nil, err
	}
	// One entry needs at least a 4-byte string header plus an 8-byte
	// generation; validating the declared count against the bytes
	// present before allocating is the wire discipline.
	if count > uint64(p.Remaining())/12 {
		return nil, fmt.Errorf("query: generation count %d exceeds remaining payload (%d bytes)", count, p.Remaining())
	}
	gens := make(map[string]uint64, count)
	for i := uint64(0); i < count; i++ {
		name, err := p.String()
		if err != nil {
			return nil, err
		}
		gen, err := p.Uint64()
		if err != nil {
			return nil, err
		}
		if len(name) > maxDatasetNameBytes {
			return nil, fmt.Errorf("query: generation entry %d name exceeds %d bytes", i, maxDatasetNameBytes)
		}
		gens[name] = gen
	}
	return gens, nil
}
