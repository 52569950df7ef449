package dataset

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/mat"
)

// NoLabelColumn tells NewCSVSource the file holds features only.
const NoLabelColumn = -2

// CSVSource serves a numeric CSV file (one point per row, optional header,
// optionally one integer label column) as a PoolSource. It is the one CSV
// reader: cmd/firal's -pool/-labeled/-eval and -pack, and firald's inline
// pools all load through it. Opening performs one full validation pass
// that records a byte offset per row and parses the labels, so the
// resident footprint is O(n) small integers while the O(n·d) features
// stay on disk; ReadRows then seeks straight to the requested window and
// parses only those lines. Unlike the zero-alloc shard path this is a
// convenience format — packing a CSV into a shard file (see PackShard) is
// the production route for repeated sweeps.
type CSVSource struct {
	f         *os.File
	d         int
	labelCol  int // column index in the file; NoLabelColumn when absent
	offsets   []int64
	labels    []int
	sawHeader bool
}

// NewCSVSource opens and validates path. labelCol selects the label
// column: −1 means the last column, NoLabelColumn means the file is
// features only (other negative values are rejected, so a mistyped
// column can never pack the label as a feature). A non-numeric first row
// is treated as a header. Cells may carry surrounding spaces and one pair
// of surrounding double quotes ("1.5"). Rows end at every line break and
// cells at every comma, quoted or not, so a header cell cannot hold a
// quoted line break.
func NewCSVSource(path string, labelCol int) (*CSVSource, error) {
	if labelCol < 0 && labelCol != -1 && labelCol != NoLabelColumn {
		return nil, fmt.Errorf("dataset: label column %d invalid (use ≥ 0, -1 for last, or NoLabelColumn)", labelCol)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	src := &CSVSource{f: f, labelCol: labelCol}
	if err := src.index(path); err != nil {
		f.Close()
		return nil, err
	}
	return src, nil
}

// index scans the file once: validates every cell, records row offsets,
// and collects labels.
func (s *CSVSource) index(path string) error {
	r := bufio.NewReaderSize(s.f, 1<<20)
	var off int64
	lineNo := 0
	for {
		line, err := r.ReadString('\n')
		if line == "" && err != nil {
			break
		}
		lineNo++
		start := off
		off += int64(len(line))
		trimmed := strings.TrimRight(line, "\r\n")
		if strings.TrimSpace(trimmed) == "" {
			if err != nil {
				break
			}
			continue
		}
		fields := strings.Split(trimmed, ",")
		// Header: the first non-blank line, when non-numeric (keyed on "no
		// data rows seen yet", not the physical line number, so leading
		// blank lines don't demote the header to a parse error, as
		// encoding/csv skips blank lines).
		if s.offsets == nil && !s.sawHeader && !numericFields(fields) {
			s.sawHeader = true
			if err != nil {
				break
			}
			continue
		}
		label, width, perr := s.parseRow(fields, nil)
		if perr != nil {
			return fmt.Errorf("dataset: %s: row %d: %w", path, lineNo, perr)
		}
		if s.offsets == nil {
			s.d = width
		} else if width != s.d {
			return fmt.Errorf("dataset: %s: row %d has %d features, want %d", path, lineNo, width, s.d)
		}
		s.offsets = append(s.offsets, start)
		if s.labelCol != NoLabelColumn {
			s.labels = append(s.labels, label)
		}
		if err != nil {
			break
		}
	}
	if len(s.offsets) == 0 {
		return fmt.Errorf("dataset: %s: no data rows", path)
	}
	s.offsets = append(s.offsets, off) // end sentinel
	return nil
}

// parseRow validates one line's cells, returning its label and feature
// width; when dst is non-nil the features are stored into it.
func (s *CSVSource) parseRow(fields []string, dst []float64) (label, width int, err error) {
	lc := s.labelCol
	if lc == -1 {
		lc = len(fields) - 1
	}
	if lc != NoLabelColumn && (lc < 0 || lc >= len(fields)) {
		return 0, 0, fmt.Errorf("label column %d out of range (width %d)", s.labelCol, len(fields))
	}
	for col, cell := range fields {
		cell = unquote(cell)
		if col == lc {
			v, perr := strconv.Atoi(cell)
			if perr != nil || v < 0 {
				return 0, 0, fmt.Errorf("label %q is not a non-negative integer", cell)
			}
			label = v
			continue
		}
		v, perr := strconv.ParseFloat(cell, 64)
		if perr != nil {
			return 0, 0, fmt.Errorf("column %d: %q is not numeric", col+1, cell)
		}
		if dst != nil {
			dst[width] = v
		}
		width++
	}
	if width == 0 {
		return 0, 0, fmt.Errorf("no feature columns")
	}
	return label, width, nil
}

func numericFields(fields []string) bool {
	for _, cell := range fields {
		if _, err := strconv.ParseFloat(unquote(cell), 64); err != nil {
			return false
		}
	}
	return true
}

// unquote trims a cell's surrounding spaces, then one pair of surrounding
// double quotes.
func unquote(cell string) string {
	cell = strings.TrimSpace(cell)
	if len(cell) >= 2 && cell[0] == '"' && cell[len(cell)-1] == '"' {
		cell = cell[1 : len(cell)-1]
	}
	return cell
}

// NumRows returns the number of data rows.
func (s *CSVSource) NumRows() int { return len(s.offsets) - 1 }

// Dim returns the feature dimension (label column excluded).
func (s *CSVSource) Dim() int { return s.d }

// Labels returns the parsed label column (nil when opened with
// NoLabelColumn). The slice is owned by the source.
func (s *CSVSource) Labels() []int { return s.labels }

// ReadRows parses rows [lo, hi) into dst.
func (s *CSVSource) ReadRows(lo, hi int, dst *mat.Dense) error {
	if err := checkWindow(s, lo, hi, dst); err != nil {
		return err
	}
	if lo == hi {
		return nil
	}
	raw := make([]byte, s.offsets[hi]-s.offsets[lo])
	if _, err := s.f.ReadAt(raw, s.offsets[lo]); err != nil {
		return err
	}
	for i := lo; i < hi; i++ {
		line := string(raw[s.offsets[i]-s.offsets[lo] : s.offsets[i+1]-s.offsets[lo]])
		fields := strings.Split(strings.TrimRight(line, "\r\n"), ",")
		if _, _, err := s.parseRow(fields, dst.Row(i-lo)); err != nil {
			return fmt.Errorf("dataset: row %d: %w", i+1, err)
		}
	}
	return nil
}

// Close closes the underlying file.
func (s *CSVSource) Close() error { return s.f.Close() }
