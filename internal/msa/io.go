package msa

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParsePHYLIP reads a relaxed PHYLIP alignment: a header line
// "<taxa> <chars>" followed by one "name sequence" record per taxon
// (sequential format), or interleaved blocks. Whitespace inside sequences
// is ignored. This matches the input format RAxML consumes.
func ParsePHYLIP(r io.Reader) (*Alignment, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	if !sc.Scan() {
		return nil, fmt.Errorf("msa: empty PHYLIP input")
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 2 {
		return nil, fmt.Errorf("msa: PHYLIP header needs taxa and character counts, got %q", sc.Text())
	}
	nTaxa, err := strconv.Atoi(fields[0])
	if err != nil {
		return nil, fmt.Errorf("msa: bad taxa count %q: %v", fields[0], err)
	}
	nChars, err := strconv.Atoi(fields[1])
	if err != nil {
		return nil, fmt.Errorf("msa: bad character count %q: %v", fields[1], err)
	}
	if nTaxa <= 0 || nChars <= 0 {
		return nil, fmt.Errorf("msa: non-positive dimensions %d x %d", nTaxa, nChars)
	}

	// The header's counts are claims, not sizes: storage grows with the
	// records actually present, so a hostile header cannot make the
	// parser allocate for taxa that are not there.
	a := &Alignment{}
	appendStates := func(dst []State, s string) []State {
		for i := 0; i < len(s); i++ {
			b := s[i]
			if b == ' ' || b == '\t' {
				continue
			}
			dst = append(dst, EncodeChar(b))
		}
		return dst
	}

	// First pass: read nTaxa records with names.
	for len(a.Names) < nTaxa && sc.Scan() {
		line := strings.TrimRight(sc.Text(), " \t\r")
		if strings.TrimSpace(line) == "" {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return nil, fmt.Errorf("msa: PHYLIP record %q lacks sequence data", line)
		}
		a.Names = append(a.Names, f[0])
		var seq []State
		for _, part := range f[1:] {
			seq = appendStates(seq, part)
		}
		a.Seqs = append(a.Seqs, seq)
	}
	if len(a.Names) < nTaxa {
		return nil, fmt.Errorf("msa: PHYLIP header promises %d taxa, found %d", nTaxa, len(a.Names))
	}

	// Interleaved continuation blocks: lines without names, cycling taxa.
	row := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			row = 0
			continue
		}
		if len(a.Seqs[row]) >= nChars {
			return nil, fmt.Errorf("msa: taxon %q has more than %d characters", a.Names[row], nChars)
		}
		a.Seqs[row] = appendStates(a.Seqs[row], line)
		row = (row + 1) % nTaxa
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("msa: reading PHYLIP: %v", err)
	}

	for i, s := range a.Seqs {
		if len(s) != nChars {
			return nil, fmt.Errorf("msa: taxon %q has %d characters, header promises %d",
				a.Names[i], len(s), nChars)
		}
	}
	return a, a.Validate()
}

// WritePHYLIP writes the alignment in sequential relaxed PHYLIP format.
func WritePHYLIP(w io.Writer, a *Alignment) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d\n", a.NumTaxa(), a.NumChars()); err != nil {
		return err
	}
	width := 0
	for _, n := range a.Names {
		if len(n) > width {
			width = len(n)
		}
	}
	for i, name := range a.Names {
		if _, err := fmt.Fprintf(bw, "%-*s ", width, name); err != nil {
			return err
		}
		buf := make([]byte, len(a.Seqs[i]))
		for j, s := range a.Seqs[i] {
			buf[j] = DecodeState(s)
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ParseFASTA reads a FASTA alignment (all records must have equal length).
func ParseFASTA(r io.Reader) (*Alignment, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	a := &Alignment{}
	var cur []State
	flush := func() {
		if len(a.Names) > len(a.Seqs) {
			a.Seqs = append(a.Seqs, cur)
			cur = nil
		}
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line[0] == '>' {
			flush()
			name := strings.Fields(line[1:])
			if len(name) == 0 {
				return nil, fmt.Errorf("msa: FASTA record with empty name")
			}
			a.Names = append(a.Names, name[0])
			continue
		}
		if len(a.Names) == 0 {
			return nil, fmt.Errorf("msa: FASTA sequence data before first header")
		}
		for i := 0; i < len(line); i++ {
			cur = append(cur, EncodeChar(line[i]))
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("msa: reading FASTA: %v", err)
	}
	return a, a.Validate()
}

// WriteFASTA writes the alignment in FASTA format with 70-column wrapping.
func WriteFASTA(w io.Writer, a *Alignment) error {
	bw := bufio.NewWriter(w)
	for i, name := range a.Names {
		if _, err := fmt.Fprintf(bw, ">%s\n", name); err != nil {
			return err
		}
		seq := a.Seqs[i]
		for off := 0; off < len(seq); off += 70 {
			end := off + 70
			if end > len(seq) {
				end = len(seq)
			}
			for _, s := range seq[off:end] {
				if err := bw.WriteByte(DecodeState(s)); err != nil {
					return err
				}
			}
			if err := bw.WriteByte('\n'); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Sniff parses alignment data in either FASTA or PHYLIP format, detected
// from the first non-blank byte.
func Sniff(data []byte) (*Alignment, error) {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) == 0 {
		return nil, fmt.Errorf("msa: empty input")
	}
	if trimmed[0] == '>' {
		return ParseFASTA(bytes.NewReader(data))
	}
	return ParsePHYLIP(bytes.NewReader(data))
}
