package engine

import (
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
)

// SetParam assigns value to the named field of a scenario's parameter
// struct (a pointer to struct). Keys are case-insensitive field names;
// nested structs are addressed with dots (e.g. "layout.nodes").
// Supported field kinds: bool, string, integers, floats, and slices
// of float64/int/string (comma-separated values).
func SetParam(params any, key, value string) error {
	v := reflect.ValueOf(params)
	if v.Kind() != reflect.Pointer || v.Elem().Kind() != reflect.Struct {
		return fmt.Errorf("params must be a pointer to struct, got %T", params)
	}
	field, err := resolveField(v.Elem(), key)
	if err != nil {
		return err
	}
	return assign(field, key, value)
}

// HasParam reports whether the parameter struct has a field addressable
// by key.
func HasParam(params any, key string) bool {
	v := reflect.ValueOf(params)
	if v.Kind() != reflect.Pointer || v.Elem().Kind() != reflect.Struct {
		return false
	}
	_, err := resolveField(v.Elem(), key)
	return err == nil
}

func resolveField(structVal reflect.Value, key string) (reflect.Value, error) {
	cur := structVal
	parts := strings.Split(key, ".")
	for i, part := range parts {
		if cur.Kind() != reflect.Struct {
			return reflect.Value{}, fmt.Errorf("param %q: %q is not a struct", key, strings.Join(parts[:i], "."))
		}
		t := cur.Type()
		idx := -1
		for j := 0; j < t.NumField(); j++ {
			if t.Field(j).IsExported() && strings.EqualFold(t.Field(j).Name, part) {
				idx = j
				break
			}
		}
		if idx < 0 {
			return reflect.Value{}, fmt.Errorf("unknown param %q (no field %q in %s)", key, part, t)
		}
		cur = cur.Field(idx)
	}
	if !cur.CanSet() {
		return reflect.Value{}, fmt.Errorf("param %q is not settable", key)
	}
	return cur, nil
}

func assign(field reflect.Value, key, value string) error {
	switch field.Kind() {
	case reflect.Bool:
		b, err := strconv.ParseBool(value)
		if err != nil {
			return fmt.Errorf("param %q: %v", key, err)
		}
		field.SetBool(b)
	case reflect.String:
		field.SetString(value)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		n, err := strconv.ParseInt(value, 10, 64)
		if err != nil {
			return fmt.Errorf("param %q: %v", key, err)
		}
		field.SetInt(n)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		n, err := strconv.ParseUint(value, 10, 64)
		if err != nil {
			return fmt.Errorf("param %q: %v", key, err)
		}
		field.SetUint(n)
	case reflect.Float32, reflect.Float64:
		f, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return fmt.Errorf("param %q: %v", key, err)
		}
		field.SetFloat(f)
	case reflect.Slice:
		return assignSlice(field, key, value)
	default:
		return fmt.Errorf("param %q: unsupported kind %s", key, field.Kind())
	}
	return nil
}

func assignSlice(field reflect.Value, key, value string) error {
	parts := strings.Split(value, ",")
	out := reflect.MakeSlice(field.Type(), len(parts), len(parts))
	for i, p := range parts {
		if err := assign(out.Index(i), key, strings.TrimSpace(p)); err != nil {
			return err
		}
	}
	field.Set(out)
	return nil
}

// Field describes one settable parameter for `cs list -v`.
type Field struct {
	Key     string // dotted, lowercase key accepted by -set
	Type    string
	Default string // rendered default value
}

// ParamFields lists the settable fields of a parameter struct with
// their defaults, flattening nested structs into dotted keys.
func ParamFields(params any) []Field {
	v := reflect.ValueOf(params)
	if v.Kind() != reflect.Pointer || v.Elem().Kind() != reflect.Struct {
		return nil
	}
	var out []Field
	walkFields("", v.Elem(), &out)
	return out
}

func walkFields(prefix string, structVal reflect.Value, out *[]Field) {
	t := structVal.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		key := strings.ToLower(f.Name)
		if prefix != "" {
			key = prefix + "." + key
		}
		fv := structVal.Field(i)
		if fv.Kind() == reflect.Struct {
			walkFields(key, fv, out)
			continue
		}
		switch fv.Kind() {
		case reflect.Bool, reflect.String,
			reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64, reflect.Slice:
			*out = append(*out, Field{
				Key:     key,
				Type:    f.Type.String(),
				Default: renderValue(fv),
			})
		}
	}
}

func renderValue(v reflect.Value) string {
	if v.Kind() == reflect.Slice {
		var parts []string
		for i := 0; i < v.Len() && i < 6; i++ {
			parts = append(parts, renderValue(v.Index(i)))
		}
		s := strings.Join(parts, ",")
		if v.Len() > 6 {
			s += fmt.Sprintf(",... (%d values)", v.Len())
		}
		return s
	}
	return fmt.Sprintf("%v", v.Interface())
}

// GridAxis is one `-grid key=v1,v2,...` axis.
type GridAxis struct {
	Key    string
	Values []string
}

// ParseGridAxis parses a "key=v1,v2,..." grid specification. A value
// repeated within the axis is an error: its variants would share one
// label, and so one set of artifact files.
func ParseGridAxis(spec string) (GridAxis, error) {
	key, vals, ok := strings.Cut(spec, "=")
	if !ok || key == "" || vals == "" {
		return GridAxis{}, fmt.Errorf("bad grid axis %q (want key=v1,v2,...)", spec)
	}
	parts := strings.Split(vals, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
		if slices.Contains(parts[:i], parts[i]) {
			return GridAxis{}, fmt.Errorf("grid axis %q repeats value %q", spec, parts[i])
		}
	}
	return GridAxis{Key: key, Values: parts}, nil
}

// GridPoint is one assignment of every grid axis, applied to a variant
// run. Label renders it as "k=v k2=w" for directory and report names.
type GridPoint []struct{ Key, Value string }

// Label renders the point for run directories and report headers.
func (g GridPoint) Label() string {
	var parts []string
	for _, kv := range g {
		parts = append(parts, kv.Key+"="+kv.Value)
	}
	return strings.Join(parts, " ")
}

// ExpandGrid builds the cross product of the axes, preserving axis
// order (first axis varies slowest). No axes yields one empty point.
func ExpandGrid(axes []GridAxis) []GridPoint {
	points := []GridPoint{nil}
	for _, ax := range axes {
		var next []GridPoint
		for _, p := range points {
			for _, v := range ax.Values {
				np := make(GridPoint, len(p), len(p)+1)
				copy(np, p)
				np = append(np, struct{ Key, Value string }{ax.Key, v})
				next = append(next, np)
			}
		}
		points = next
	}
	return points
}
