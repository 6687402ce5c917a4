package pipeline

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"strings"
)

// OpenReader opens path as a byte stream, transparently decompressing
// gzip content: a file is treated as gzip when its name ends in ".gz" or
// its first two bytes carry the gzip magic (real Blue Coat dumps ship
// gzipped, often without the suffix after renaming). A ".gz" file
// without a valid gzip header is an error, not a silent zero-record
// source. Used by OpenBlockFile and by `censorlyzer -load-state`.
func OpenReader(path string) (io.Reader, io.Closer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	br := bufio.NewReaderSize(f, 64*1024)
	magic, _ := br.Peek(2)
	isGzMagic := len(magic) == 2 && magic[0] == 0x1f && magic[1] == 0x8b
	if strings.HasSuffix(path, ".gz") || isGzMagic {
		zr, err := gzip.NewReader(br)
		if err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("pipeline: %s: %w", path, err)
		}
		return zr, multiCloser{zr, f}, nil
	}
	return br, f, nil
}

// wrapPath adds source context to a terminal error; nil errors and
// anonymous sources pass through.
func wrapPath(path string, err error) error {
	if err == nil || path == "" {
		return err
	}
	return fmt.Errorf("pipeline: %s: %w", path, err)
}

type multiCloser []io.Closer

func (m multiCloser) Close() error {
	var first error
	for _, c := range m {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
