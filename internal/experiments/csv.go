package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
)

// WriteCSV emits the table as RFC-4180 CSV: a comment-style header row
// with the id/title, then the column header and rows. Notes become
// trailing comment rows. Downstream plotting scripts consume this via
// `cmd/experiments -csv`.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"# " + t.ID, t.Title}); err != nil {
		return fmt.Errorf("experiments: csv header: %w", err)
	}
	if err := cw.Write(t.Header); err != nil {
		return fmt.Errorf("experiments: csv columns: %w", err)
	}
	for i, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("experiments: csv row %d: %w", i, err)
		}
	}
	for _, n := range t.Notes {
		if err := cw.Write([]string{"# note", n}); err != nil {
			return fmt.Errorf("experiments: csv note: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}
