package dataset

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/smart"
)

// Ticket is one failure report from the maintenance system: the drive
// and the day the failure was detected (Section II-A).
type Ticket struct {
	DriveID int
	Model   smart.ModelID
	Day     int
}

// ErrBadCSV indicates a malformed CSV input.
var ErrBadCSV = errors.New("dataset: bad csv")

// WriteModelCSV writes the daily SMART logs of one model in the layout
// of the released ssd_smart_logs dataset: a header of
// day,model,drive_id followed by one column per learning feature, then
// one row per drive-day. Failed drives stop at their fail day.
func WriteModelCSV(w io.Writer, src Source, model smart.ModelID) error {
	if !model.Valid() {
		return fmt.Errorf("dataset: invalid model %v", model)
	}
	feats := smart.MustSpec(model).Features()
	cw := csv.NewWriter(w)
	header := []string{"day", "model", "drive_id"}
	for _, ft := range feats {
		header = append(header, ft.String())
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("dataset: write header: %w", err)
	}

	drives := src.DrivesOf(model)
	sort.Slice(drives, func(i, j int) bool { return drives[i].ID < drives[j].ID })
	row := make([]string, len(header))
	for _, ref := range drives {
		series, lastDay, err := src.Series(ref)
		if err != nil {
			return err
		}
		for day := 0; day <= lastDay; day++ {
			row[0] = strconv.Itoa(day)
			row[1] = model.String()
			row[2] = strconv.Itoa(ref.ID)
			for i, ft := range feats {
				col, ok := series[ft]
				if !ok {
					return fmt.Errorf("dataset: model %v drive %d missing %v", model, ref.ID, ft)
				}
				row[3+i] = strconv.FormatFloat(col[day], 'g', -1, 64)
			}
			if err := cw.Write(row); err != nil {
				return fmt.Errorf("dataset: write row: %w", err)
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTicketsCSV writes the failure tickets of every model in the
// source: day,model,drive_id per failure.
func WriteTicketsCSV(w io.Writer, src Source, models []smart.ModelID) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"day", "model", "drive_id"}); err != nil {
		return fmt.Errorf("dataset: write header: %w", err)
	}
	for _, m := range models {
		for _, ref := range src.DrivesOf(m) {
			if !ref.Failed() {
				continue
			}
			err := cw.Write([]string{strconv.Itoa(ref.FailDay), m.String(), strconv.Itoa(ref.ID)})
			if err != nil {
				return fmt.Errorf("dataset: write ticket: %w", err)
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadTicketsCSV parses a tickets file written by WriteTicketsCSV.
func ReadTicketsCSV(r io.Reader) ([]Ticket, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCSV, err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("%w: empty tickets file", ErrBadCSV)
	}
	var out []Ticket
	for i, row := range rows[1:] {
		if len(row) != 3 {
			return nil, fmt.Errorf("%w: ticket row %d has %d fields", ErrBadCSV, i+2, len(row))
		}
		day, err := strconv.Atoi(row[0])
		if err != nil {
			return nil, fmt.Errorf("%w: ticket row %d day: %v", ErrBadCSV, i+2, err)
		}
		model, err := smart.ParseModel(row[1])
		if err != nil {
			return nil, fmt.Errorf("%w: ticket row %d: %v", ErrBadCSV, i+2, err)
		}
		id, err := strconv.Atoi(row[2])
		if err != nil {
			return nil, fmt.Errorf("%w: ticket row %d drive: %v", ErrBadCSV, i+2, err)
		}
		out = append(out, Ticket{DriveID: id, Model: model, Day: day})
	}
	return out, nil
}

// Logs is an in-memory SMART log collection for one drive model,
// typically parsed from CSV. It implements Source, so frames can be
// built from real released data exactly as from the simulator.
type Logs struct {
	model  smart.ModelID
	days   int
	feats  []smart.Feature
	series map[int]map[smart.Feature][]float64
	last   map[int]int
	fail   map[int]int
}

var _ Source = (*Logs)(nil)

// Model returns the drive model the logs belong to.
func (l *Logs) Model() smart.ModelID { return l.model }

// Days implements Source.
func (l *Logs) Days() int { return l.days }

// DrivesOf implements Source. It returns no drives for models other
// than the one the logs were parsed for.
func (l *Logs) DrivesOf(m smart.ModelID) []DriveRef {
	if m != l.model {
		return nil
	}
	ids := make([]int, 0, len(l.series))
	for id := range l.series {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]DriveRef, len(ids))
	for i, id := range ids {
		failDay := -1
		if fd, ok := l.fail[id]; ok {
			failDay = fd
		}
		out[i] = DriveRef{ID: id, Model: l.model, FailDay: failDay}
	}
	return out
}

// Series implements Source.
func (l *Logs) Series(ref DriveRef) (map[smart.Feature][]float64, int, error) {
	s, ok := l.series[ref.ID]
	if !ok {
		return nil, 0, fmt.Errorf("dataset: no logs for drive %d", ref.ID)
	}
	return s, l.last[ref.ID], nil
}

// ApplyTickets marks failure days from a ticket list. Tickets for
// other models are ignored.
func (l *Logs) ApplyTickets(tickets []Ticket) {
	for _, t := range tickets {
		if t.Model != l.model {
			continue
		}
		if _, ok := l.series[t.DriveID]; ok {
			l.fail[t.DriveID] = t.Day
		}
	}
}

// ReadModelCSV parses a SMART log file written by WriteModelCSV (or
// adapted from the released dataset) into Logs. Every drive's rows
// must cover consecutive days starting at 0.
func ReadModelCSV(r io.Reader) (*Logs, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrBadCSV, err)
	}
	if len(header) < 4 || header[0] != "day" || header[1] != "model" || header[2] != "drive_id" {
		return nil, fmt.Errorf("%w: unexpected header %v", ErrBadCSV, header)
	}
	feats := make([]smart.Feature, len(header)-3)
	for i, name := range header[3:] {
		ft, err := smart.ParseFeature(name)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadCSV, err)
		}
		feats[i] = ft
	}

	l := &Logs{
		feats:  feats,
		series: make(map[int]map[smart.Feature][]float64),
		last:   make(map[int]int),
		fail:   make(map[int]int),
	}
	line := 1
	for {
		row, err := cr.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrBadCSV, line+1, err)
		}
		line++
		if len(row) != len(header) {
			return nil, fmt.Errorf("%w: line %d has %d fields, want %d", ErrBadCSV, line, len(row), len(header))
		}
		day, err := strconv.Atoi(row[0])
		if err != nil {
			return nil, fmt.Errorf("%w: line %d day: %v", ErrBadCSV, line, err)
		}
		model, err := smart.ParseModel(row[1])
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrBadCSV, line, err)
		}
		if l.model == 0 {
			l.model = model
		} else if model != l.model {
			return nil, fmt.Errorf("%w: line %d: mixed models %v and %v", ErrBadCSV, line, l.model, model)
		}
		id, err := strconv.Atoi(row[2])
		if err != nil {
			return nil, fmt.Errorf("%w: line %d drive: %v", ErrBadCSV, line, err)
		}
		s, ok := l.series[id]
		if !ok {
			s = make(map[smart.Feature][]float64, len(feats))
			for _, ft := range feats {
				s[ft] = []float64{}
			}
			l.series[id] = s
			l.last[id] = -1
		}
		if day != l.last[id]+1 {
			return nil, fmt.Errorf("%w: line %d: drive %d day %d not consecutive after %d", ErrBadCSV, line, id, day, l.last[id])
		}
		for i, ft := range feats {
			v, err := strconv.ParseFloat(row[3+i], 64)
			if err != nil {
				return nil, fmt.Errorf("%w: line %d field %s: %v", ErrBadCSV, line, ft, err)
			}
			s[ft] = append(s[ft], v)
		}
		l.last[id] = day
		if day+1 > l.days {
			l.days = day + 1
		}
	}
	if len(l.series) == 0 {
		return nil, fmt.Errorf("%w: no data rows", ErrBadCSV)
	}
	return l, nil
}
