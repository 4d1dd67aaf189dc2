// Package statecopy deep-copies the plain-data values that simulated
// components keep their mutable state in. A component holds that
// state in one field whose type is the exported state type its
// warm-state snapshot serializes; the snapshot is Clone of the field
// and a restore is CopyInto the field, so the live value and the
// serialized value are the same type and no hand-written converter
// can fall out of step with it.
//
// State types are plain data: exported fields of scalars, strings,
// arrays, structs and slices. Maps, pointers, interfaces, channels and
// funcs are references, which a snapshot cannot carry by value; both
// functions panic on one (a component with such state serializes it
// by hand). Reflection is fine here: snapshot and restore run once per
// checkpoint or cell, never per simulated cycle.
package statecopy

import (
	"fmt"
	"reflect"
)

// Clone returns a deep copy of v that shares no backing array with
// it. Empty slices clone as nil, which gob does not tell apart from
// empty either.
func Clone[T any](v T) T {
	var out T
	copyValue(reflect.ValueOf(&out).Elem(), reflect.ValueOf(&v).Elem())
	return out
}

// CopyInto overwrites *dst with a deep copy of src. Every slice in
// *dst whose capacity holds its counterpart in src is reused, so a
// restore into a component of the same geometry allocates nothing.
func CopyInto[T any](dst *T, src T) {
	copyValue(reflect.ValueOf(dst).Elem(), reflect.ValueOf(&src).Elem())
}

// Recycle returns a deep copy of v. When prev holds a T (an earlier
// copy its owner gives up), the copy is built in prev's backing arrays
// as by CopyInto, so copying again into the previous result allocates
// nothing but the interface box the caller keeps it in.
func Recycle[T any](prev any, v T) T {
	dst, _ := prev.(T)
	CopyInto(&dst, v)
	return dst
}

// copyValue never calls reflect.Value.Set, which would make the
// compiler move Clone's result and CopyInto's src argument to the
// heap: scalars go through the typed setters, slices grow in place
// and plain arrays copy with reflect.Copy.
func copyValue(dst, src reflect.Value) {
	switch src.Kind() {
	case reflect.Bool:
		dst.SetBool(src.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		dst.SetInt(src.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		dst.SetUint(src.Uint())
	case reflect.Float32, reflect.Float64:
		dst.SetFloat(src.Float())
	case reflect.Complex64, reflect.Complex128:
		dst.SetComplex(src.Complex())
	case reflect.String:
		dst.SetString(src.String())
	case reflect.Slice:
		n := src.Len()
		dst.SetLen(0)
		dst.Grow(n)
		dst.SetLen(n)
		copyElems(dst, src)
	case reflect.Array:
		copyElems(dst, src)
	case reflect.Struct:
		for i := 0; i < src.NumField(); i++ {
			copyValue(dst.Field(i), src.Field(i))
		}
	default:
		panic(fmt.Sprintf("statecopy: %s is a reference, not plain data", src.Type()))
	}
}

// copyElems copies the elements of two equal-length slices or arrays,
// in one move when the elements hold no references.
func copyElems(dst, src reflect.Value) {
	if !hasRefs(src.Type().Elem()) {
		reflect.Copy(dst, src)
		return
	}
	for i := 0; i < src.Len(); i++ {
		copyValue(dst.Index(i), src.Index(i))
	}
}

// hasRefs reports whether values of t point at memory a shallow copy
// would share. Strings are immutable and copy shallowly.
func hasRefs(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return hasRefs(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasRefs(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Slice, reflect.Map, reflect.Pointer, reflect.Interface,
		reflect.Chan, reflect.Func, reflect.UnsafePointer:
		return true
	}
	return false
}
