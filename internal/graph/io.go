package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ReadEdgeList parses a SNAP-style whitespace-separated edge list.
// Lines beginning with '#' or '%' are comments. Vertex IDs may be
// arbitrary non-negative integers; they are compacted to [0, n) in
// order of first appearance, and the mapping from compact ID to
// original ID is returned.
//
// The format matches the files distributed at snap.stanford.edu, the
// source of the paper's Table I datasets.
func ReadEdgeList(r io.Reader) (*Graph, []int64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	remap := make(map[int64]int32)
	var orig []int64
	intern := func(raw int64) int32 {
		if id, ok := remap[raw]; ok {
			return id
		}
		id := int32(len(orig))
		remap[raw] = id
		orig = append(orig, raw)
		return id
	}
	var edges []Edge
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, nil, fmt.Errorf("graph: line %d: want at least 2 fields, got %d", lineNo, len(fields))
		}
		u, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("graph: line %d: bad vertex %q: %v", lineNo, fields[0], err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("graph: line %d: bad vertex %q: %v", lineNo, fields[1], err)
		}
		if u < 0 || v < 0 {
			return nil, nil, fmt.Errorf("graph: line %d: negative vertex ID", lineNo)
		}
		if u == v {
			continue
		}
		edges = append(edges, Edge{intern(u), intern(v)})
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("graph: scanning edge list: %w", err)
	}
	return FromEdges(len(orig), edges), orig, nil
}
