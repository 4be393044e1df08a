package core

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
)

// CSVTable is one experiment's rows rendered to strings, ready for an
// encoding/csv writer. Table is the only way to build one, so cmd/ibsim
// and the golden-determinism tests produce the same bytes for the same
// results: the golden files guard the simulator, not two formatting
// paths.
type CSVTable struct {
	Name   string
	Header []string
	Rows   [][]string
}

// Table renders rows as the experiment CSV called name. A column is a
// field of T tagged `csv:"<header>"` or `csv:"<header>,<verb>"`, in field
// order; an untagged field is not a column. A cell is rendered by the
// first rule that fits its field:
//   - a tag verb formats it with fmt (`ber,%g` echoes a parameter
//     exactly; Table 4's `forgery_prob,%.6g` spans 2^-30..2^-160);
//   - a float64 prints with four decimal places;
//   - a bool prints "on" or "off";
//   - anything else prints as %v: integers, strings and Stringers.
func Table[T any](name string, rows []T) CSVTable {
	type column struct {
		field int
		verb  string
	}
	var cols []column
	t := CSVTable{Name: name}
	typ := reflect.TypeFor[T]()
	for i := range typ.NumField() {
		tag, ok := typ.Field(i).Tag.Lookup("csv")
		if !ok {
			continue
		}
		header, verb, _ := strings.Cut(tag, ",")
		t.Header = append(t.Header, header)
		cols = append(cols, column{i, verb})
	}
	for _, r := range rows {
		v := reflect.ValueOf(r)
		cells := make([]string, len(cols))
		for j, c := range cols {
			cells[j] = cell(v.Field(c.field), c.verb)
		}
		t.Rows = append(t.Rows, cells)
	}
	return t
}

// cell renders one field by Table's rules.
func cell(f reflect.Value, verb string) string {
	switch {
	case verb != "":
		return fmt.Sprintf(verb, f.Interface())
	case f.Kind() == reflect.Float64:
		return strconv.FormatFloat(f.Float(), 'f', 4, 64)
	case f.Kind() == reflect.Bool && f.Bool():
		return "on"
	case f.Kind() == reflect.Bool:
		return "off"
	}
	return fmt.Sprint(f.Interface())
}

// Encode writes the table in RFC-4180 form.
func (t CSVTable) Encode(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	if err := cw.WriteAll(t.Rows); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// Bytes returns the encoded table.
func (t CSVTable) Bytes() []byte {
	var buf bytes.Buffer
	if err := t.Encode(&buf); err != nil {
		panic(err) // bytes.Buffer cannot fail; a csv quoting bug would
	}
	return buf.Bytes()
}
