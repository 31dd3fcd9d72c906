package expspec

// Strict document decoding. encoding/json's DisallowUnknownFields
// rejects unknown fields but cannot say *where* they are, and it
// cannot apply per-field validation messages. This walker reads each
// section's fields from the same json tags Encode writes and decodes
// them by Go kind, so every error carries a full field path
// ("campaign.profiles[1].cloud") — the difference between a usable
// spec format and a guessing game — and a field added to a section
// struct is strict and canonical from the moment it exists. The same
// walker consumes JSON and the YAML subset: both decode to the
// identical (map/slice/json.Number) tree first.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"

	"cloudvar/internal/workload"
)

// Decode parses and strictly validates a spec document from JSON or
// the YAML subset (sniffed: a document starting with '{' is JSON).
// Unknown fields are rejected with their full path; type mismatches
// name the field and the expected type. Fields are checked in the
// order Encode writes them — schemaVersion, name, campaign, apps,
// workloads, store, sharding, faults, drift, output, artifacts, and
// struct order within each section — so a document with several
// errors reports the first in that order. Decode does not canonicalize
// — call Canonical (or Compile) on the result.
func Decode(data []byte) (Document, error) {
	return decodeData(data, "")
}

// decodeData is Decode with a base directory for resolving trace:
// file references ("" forbids them — a byte slice has no location).
func decodeData(data []byte, baseDir string) (Document, error) {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) == 0 {
		return Document{}, fmt.Errorf("spec is empty")
	}
	var tree any
	if trimmed[0] == '{' || trimmed[0] == '[' {
		if err := checkDuplicateJSONKeys(data); err != nil {
			return Document{}, err
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.UseNumber()
		if err := dec.Decode(&tree); err != nil {
			return Document{}, fmt.Errorf("invalid JSON: %w", err)
		}
		// Anything after the document — a second value OR invalid
		// bytes (a stray merge marker, a truncated edit) — is an
		// error; only clean EOF is acceptable.
		var extra any
		if err := dec.Decode(&extra); !errors.Is(err, io.EOF) {
			return Document{}, fmt.Errorf("invalid JSON: data after the document")
		}
	} else {
		t, err := decodeYAML(data)
		if err != nil {
			return Document{}, err
		}
		tree = t
	}
	return decodeTree(tree, baseDir)
}

// DecodeFile reads and decodes a spec file; .yaml/.yml files use the
// YAML-subset parser, everything else is sniffed (JSON canonical).
// Trace clients whose arrival names a trace: CSV file resolve it
// relative to the spec file's directory and inline the times, so the
// decoded document is self-contained and content-addressed.
func DecodeFile(path string) (Document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Document{}, err
	}
	baseDir := filepath.Dir(path)
	var doc Document
	switch filepath.Ext(path) {
	case ".yaml", ".yml":
		tree, yerr := decodeYAML(data)
		if yerr == nil {
			doc, err = decodeTree(tree, baseDir)
		} else {
			err = yerr
		}
	default:
		doc, err = decodeData(data, baseDir)
	}
	if err != nil {
		return Document{}, fmt.Errorf("spec file %s: %w", path, err)
	}
	return doc, nil
}

// checkDuplicateJSONKeys walks the raw token stream rejecting objects
// that repeat a key. encoding/json silently keeps the last occurrence
// — a leftover line from a hand edit would silently change the
// experiment, exactly the failure mode a strict spec format exists to
// prevent (the YAML path already rejects duplicates).
func checkDuplicateJSONKeys(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()

	// A stack frame per open container: objects track their seen keys
	// and the key currently awaiting its value, arrays just nest.
	type frame struct {
		object     bool
		seen       map[string]bool
		path       string // the container's path, for error messages
		pending    string // object key whose value comes next
		hasPending bool   // pending is live ("" is a legal JSON key)
		index      int    // next array element index
	}
	var stack []*frame
	// childPath names the position the next value will occupy.
	childPath := func() string {
		if len(stack) == 0 {
			return ""
		}
		top := stack[len(stack)-1]
		if top.object {
			if top.path == "" {
				return top.pending
			}
			return top.path + "." + top.pending
		}
		return fmt.Sprintf("%s[%d]", top.path, top.index)
	}
	for {
		tok, err := dec.Token()
		if err != nil {
			// io.EOF and malformed JSON alike: the real decode that
			// follows reports malformed input with its own message.
			return nil
		}
		top := func() *frame {
			if len(stack) == 0 {
				return nil
			}
			return stack[len(stack)-1]
		}()
		if d, ok := tok.(json.Delim); ok {
			switch d {
			case '{', '[':
				stack = append(stack, &frame{object: d == '{', seen: map[string]bool{}, path: childPath()})
			case '}', ']':
				stack = stack[:len(stack)-1]
				// The closed container was a value: settle its slot in
				// the parent.
				if len(stack) > 0 {
					if p := stack[len(stack)-1]; p.object {
						p.pending, p.hasPending = "", false
					} else {
						p.index++
					}
				}
			}
			continue
		}
		if top == nil {
			continue
		}
		if top.object && !top.hasPending {
			key := tok.(string)
			if top.seen[key] {
				at := key
				if top.path != "" {
					at = top.path + "." + key
				}
				return fmt.Errorf("duplicate field %q (the last occurrence would silently win)", at)
			}
			top.seen[key] = true
			top.pending, top.hasPending = key, true
			continue
		}
		// A scalar value: consume the pending key / advance the array.
		if top.object {
			top.pending, top.hasPending = "", false
		} else {
			top.index++
		}
	}
}

// object is one map node of the tree, tracking which keys the walker
// consumed so leftovers are reported as unknown fields.
type object struct {
	path string
	m    map[string]any
	used map[string]bool
}

func asObject(path string, v any) (*object, error) {
	m, ok := v.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("%s: expected an object, got %s", displayPath(path), typeName(v))
	}
	return &object{path: path, m: m, used: make(map[string]bool)}, nil
}

// displayPath renders a path for error messages; the root is named
// "spec".
func displayPath(path string) string {
	if path == "" {
		return "spec"
	}
	return path
}

func (o *object) child(key string) string {
	if o.path == "" {
		return key
	}
	return o.path + "." + key
}

// get looks a key up, recording the attempt whether or not the key
// is present — so after a section has been walked, used holds the
// section's full schema and finish can both detect unknown fields and
// name the fields that would have been accepted.
func (o *object) get(key string) (any, bool) {
	o.used[key] = true
	v, ok := o.m[key]
	return v, ok
}

// finish rejects unconsumed keys, naming each with its full path and
// the fields the section does know.
func (o *object) finish() error {
	var unknown []string
	for k := range o.m {
		if !o.used[k] {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) == 0 {
		return nil
	}
	sort.Strings(unknown)
	known := make([]string, 0, len(o.used))
	for k := range o.used {
		known = append(known, k)
	}
	sort.Strings(known)
	return fmt.Errorf("unknown field %q (known fields in %s: %s)",
		o.child(unknown[0]), displayPath(o.path), strings.Join(known, ", "))
}

func typeName(v any) string {
	switch v.(type) {
	case nil:
		return "null"
	case bool:
		return "a boolean"
	case string:
		return "a string"
	case json.Number:
		return "a number"
	case []any:
		return "a list"
	case map[string]any:
		return "an object"
	default:
		return fmt.Sprintf("%T", v)
	}
}

// decodeTree walks the parsed tree into a Document, strictly. baseDir
// resolves trace: file references in the workloads section; "" means
// the document was decoded from bytes and file references are errors.
func decodeTree(tree any, baseDir string) (Document, error) {
	var d Document
	if err := (walker{baseDir}).value("", tree, reflect.ValueOf(&d).Elem()); err != nil {
		return Document{}, err
	}
	return d, nil
}

// walker decodes tree nodes into the document's section structs.
// baseDir is decodeTree's.
type walker struct{ baseDir string }

// value decodes the node v, found at path, into dst by dst's kind: a
// struct value is a required section, a pointer to one an optional
// section.
func (w walker) value(path string, v any, dst reflect.Value) error {
	switch dst.Kind() {
	case reflect.String:
		s, ok := v.(string)
		if !ok {
			return fmt.Errorf("%s: expected a string, got %s", path, typeName(v))
		}
		dst.SetString(s)
	case reflect.Bool:
		b, ok := v.(bool)
		if !ok {
			return fmt.Errorf("%s: expected a boolean, got %s", path, typeName(v))
		}
		dst.SetBool(b)
	case reflect.Int, reflect.Uint64, reflect.Float64:
		n, ok := v.(json.Number)
		if !ok {
			return fmt.Errorf("%s: expected a number, got %s", path, typeName(v))
		}
		switch dst.Kind() {
		case reflect.Int:
			i, err := n.Int64()
			if err != nil || i != int64(int(i)) {
				return fmt.Errorf("%s: %s is not an integer", path, n)
			}
			dst.SetInt(i)
		case reflect.Uint64:
			u, err := strconv.ParseUint(string(n), 10, 64)
			if err != nil {
				return fmt.Errorf("%s: %s is not an unsigned integer", path, n)
			}
			dst.SetUint(u)
		default:
			f, err := n.Float64()
			if err != nil || math.IsInf(f, 0) || math.IsNaN(f) {
				return fmt.Errorf("%s: %s is not a finite number", path, n)
			}
			dst.SetFloat(f)
		}
	case reflect.Slice:
		items, ok := v.([]any)
		if !ok {
			return fmt.Errorf("%s: expected a list, got %s", path, typeName(v))
		}
		s := reflect.MakeSlice(dst.Type(), len(items), len(items))
		for i, it := range items {
			if err := w.value(path+"["+strconv.Itoa(i)+"]", it, s.Index(i)); err != nil {
				return err
			}
		}
		dst.Set(s)
	case reflect.Map:
		o, err := asObject(path, v)
		if err != nil {
			return err
		}
		// In key order, so of several bad values the same one is
		// reported every time.
		m := reflect.MakeMapWithSize(dst.Type(), len(o.m))
		for _, k := range slices.Sorted(maps.Keys(o.m)) {
			e := reflect.New(dst.Type().Elem()).Elem()
			if err := w.value(o.child(k), o.m[k], e); err != nil {
				return err
			}
			m.SetMapIndex(reflect.ValueOf(k), e)
		}
		dst.Set(m)
	case reflect.Pointer:
		p := reflect.New(dst.Type().Elem())
		if err := w.value(path, v, p.Elem()); err != nil {
			return err
		}
		dst.Set(p)
	case reflect.Struct:
		o, err := asObject(path, v)
		if err != nil {
			return err
		}
		return w.fields(o, dst)
	default:
		return fmt.Errorf("%s: no decoder for %s", displayPath(path), dst.Type())
	}
	return nil
}

// fields decodes a section into the struct dst: one key per json tag,
// in declaration order (the order Encode writes them), then any key
// no tag declares is an unknown field.
func (w walker) fields(o *object, dst reflect.Value) error {
	t := dst.Type()
	doc, _ := dst.Addr().Interface().(*Document)
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		v, ok := o.get(key)
		if !ok {
			if f.Type.Kind() == reflect.Struct {
				return fmt.Errorf("%s: required", o.child(key))
			}
			continue
		}
		if list, isList := v.([]any); isList && doc != nil && key == "workloads" {
			if err := doc.legacyApps(list); err != nil {
				return err
			}
			continue
		}
		if err := w.value(o.child(key), v, dst.Field(i)); err != nil {
			return err
		}
	}
	if a, ok := dst.Addr().Interface().(*WorkloadArrival); ok {
		if err := w.inlineTrace(o, a); err != nil {
			return err
		}
	}
	return o.finish()
}

// legacyApps takes a workloads: list, which is a string list of
// application names in version 1; version 2 moved the names to apps:
// and reuses the key for the structured traffic section. Called once
// schemaVersion and apps are decoded, it disambiguates on the list's
// shape so both the legacy alias and the migration errors are precise.
func (d *Document) legacyApps(list []any) error {
	names := make([]string, len(list))
	for i, it := range list {
		s, ok := it.(string)
		if !ok {
			return fmt.Errorf("workloads: expected an object section ({aggregateRps, requestKB, clients}), got a list")
		}
		names[i] = s
	}
	if d.SchemaVersion > 1 {
		return fmt.Errorf("workloads: expected client objects; string list moved to apps")
	}
	if d.Apps != nil {
		return fmt.Errorf("workloads: legacy string list cannot be combined with apps (use apps alone)")
	}
	d.Apps = names
	return nil
}

// inlineTrace reads an arrival's trace: key, a CSV file reference no
// json tag declares. The times are inlined here, at decode time, so
// the decoded document is self-contained and its identity hash covers
// the trace's content, not its path.
func (w walker) inlineTrace(o *object, a *WorkloadArrival) error {
	var tracePath string
	if v, ok := o.get("trace"); ok {
		if err := w.value(o.child("trace"), v, reflect.ValueOf(&tracePath).Elem()); err != nil {
			return err
		}
	}
	if tracePath == "" {
		return nil
	}
	if a.Times != nil {
		return fmt.Errorf("%s: set either times or trace, not both", displayPath(o.path))
	}
	if w.baseDir == "" {
		return fmt.Errorf("%s.trace: file references require decoding from a spec file (inline times instead)", o.path)
	}
	f, err := os.Open(filepath.Join(w.baseDir, tracePath))
	if err != nil {
		return fmt.Errorf("%s.trace: %w", o.path, err)
	}
	defer f.Close()
	times, err := workload.ReadTraceCSV(f)
	if err != nil {
		return fmt.Errorf("%s.trace: %s: %w", o.path, tracePath, err)
	}
	a.Times = times
	return nil
}
