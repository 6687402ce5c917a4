package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

// corpus is one syngen output directory, held both as paths (what the
// programs under test receive) and as bytes (what the load generator
// posts).
type corpus struct {
	dir   string
	files []string
	data  [][]byte
	bytes int64
}

// generate runs syngen once and reports how long it took.
func generate(syngen, dir string, requests int, seed uint64) (timed, error) {
	if err := os.RemoveAll(dir); err != nil {
		return timed{}, err
	}
	res := runProc(syngen, "-out", dir, "-requests", strconv.Itoa(requests),
		"-seed", strconv.FormatUint(seed, 10), "-quiet")
	if res.err != nil {
		return timed{}, fmt.Errorf("syngen: %w: %s", res.err, res.stderr)
	}
	return timed{res.wall.Seconds(), res.start, res.start.Add(res.wall)}, nil
}

func loadCorpus(dir string) (*corpus, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("corpus: no *.csv under %s", dir)
	}
	sort.Strings(files)
	c := &corpus{dir: dir, files: files}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		c.data = append(c.data, b)
		c.bytes += int64(len(b))
	}
	return c, nil
}

// lineSlices cuts data into consecutive pieces of at most size bytes,
// each ending on a newline, so every piece is a valid request body on
// its own. A line longer than size becomes its own piece.
func lineSlices(data []byte, size int) [][]byte {
	var out [][]byte
	for len(data) > 0 {
		if len(data) <= size {
			out = append(out, data)
			break
		}
		cut := bytes.LastIndexByte(data[:size], '\n')
		if cut < 0 {
			if cut = bytes.IndexByte(data, '\n'); cut < 0 {
				cut = len(data) - 1
			}
		}
		out = append(out, data[:cut+1])
		data = data[cut+1:]
	}
	return out
}

// slices cuts every file of the corpus (never across files).
func (c *corpus) slices(size int) [][]byte {
	var out [][]byte
	for _, d := range c.data {
		out = append(out, lineSlices(d, size)...)
	}
	return out
}

// countRecords counts the lines the parser turns into records: not
// blank, not '#' comments. syngen writes no malformed lines.
func countRecords(b []byte) uint64 {
	var n uint64
	for len(b) > 0 {
		line := b
		if i := bytes.IndexByte(b, '\n'); i >= 0 {
			line, b = b[:i], b[i+1:]
		} else {
			b = nil
		}
		if len(line) > 0 && line[0] != '#' && !(len(line) == 1 && line[0] == '\r') {
			n++
		}
	}
	return n
}

// strideLines returns about want record lines of data taken at a fixed
// stride from line offset on (comments skipped), so they spread over the
// whole file.
func strideLines(data []byte, want, offset int) []byte {
	lines := bytes.Count(data, []byte{'\n'})
	stride := max(lines/max(want, 1), 1)
	offset %= stride
	var out []byte
	for i := 0; len(data) > 0; i++ {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			break
		}
		if i%stride == offset && data[0] != '#' {
			out = append(out, data[:nl+1]...)
		}
		data = data[nl+1:]
	}
	return out
}

// strided builds the body for refresh round r: about size bytes of
// lines taken at a fixed stride across one whole file. The files are in
// time order, so a contiguous slice would touch a couple of hourly
// buckets and leave most /v1/range windows cached; a strided one lands
// in every bucket, which makes each round's range queries real misses.
func (c *corpus) strided(r, size int) []byte {
	data := c.data[r%len(c.data)]
	avg := max(len(data)/max(bytes.Count(data, []byte{'\n'}), 1), 1)
	return strideLines(data, max(size/avg, 1), r/len(c.data))
}

// sample returns about n record lines, the same share of every file and
// spread over each file's whole time span: the fixed slice the
// in-process probes run over. It has the corpus's bucket layout at a
// fraction of its size.
func (c *corpus) sample(n int) [][]byte {
	var out [][]byte
	for _, d := range c.data {
		out = append(out, strideLines(d, max(n/len(c.data), 1), 0))
	}
	return out
}
