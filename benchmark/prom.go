package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// scrape is one parsed /metrics page: series name, labels included as
// written ("family{label=\"v\"}"), to value. Histogram buckets are skipped;
// nothing here reads them and a wide daemon has a hundred thousand.
type scrape map[string]float64

func parseProm(r io.Reader) (scrape, error) {
	out := make(scrape)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 || line[0] == '#' || bytes.Contains(line, []byte("_bucket{")) {
			continue
		}
		sp := bytes.LastIndexByte(line, ' ')
		if sp <= 0 {
			return nil, fmt.Errorf("metrics line without a value: %q", line)
		}
		v, err := strconv.ParseFloat(string(line[sp+1:]), 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[string(line[:sp])] = v
	}
	return out, sc.Err()
}

// family sums every series of a metric family, whatever its labels.
func (s scrape) family(name string) float64 {
	sum := s[name]
	prefix := name + "{"
	for k, v := range s {
		if strings.HasPrefix(k, prefix) {
			sum += v
		}
	}
	return sum
}

// memstats is the part of /debug/vars the layer budget reads.
type memstats struct {
	Mallocs      uint64
	TotalAlloc   uint64
	PauseTotalNs uint64
	HeapInuse    uint64
	NumGC        uint32
}

func parseMemstats(r io.Reader) (memstats, error) {
	var vars struct {
		Memstats *memstats `json:"memstats"`
	}
	if err := json.NewDecoder(r).Decode(&vars); err != nil {
		return memstats{}, fmt.Errorf("/debug/vars: %w", err)
	}
	if vars.Memstats == nil {
		return memstats{}, fmt.Errorf("/debug/vars: no memstats")
	}
	return *vars.Memstats, nil
}
