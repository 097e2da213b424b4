package features

import (
	"fmt"
	"reflect"
	"testing"
)

// TestKindTable checks every row of the kind table end to end, plus the
// two hazards a table-driven design brings: typed-nil slots leaking out of
// Get as non-nil interfaces, and out-of-range kinds indexing the table.
func TestKindTable(t *testing.T) {
	p := NewPlanes(structuredFrame(4))
	for _, k := range AllKinds() {
		if got, err := ParseKind(k.String()); err != nil || got != k {
			t.Errorf("%v: ParseKind(String) = %v, %v", k, got, err)
		}
		d, err := ExtractWith(k, p)
		if err != nil {
			t.Fatalf("%v: ExtractWith: %v", k, err)
		}
		if d.Kind() != k {
			t.Errorf("%v: ExtractWith returned a %v descriptor", k, d.Kind())
		}
		back, err := Parse(k, d.String())
		if err != nil || back.Kind() != k || back.String() != d.String() {
			t.Errorf("%v: Parse(String) round trip failed: %v", k, err)
		}
		if n := len(d.AppendTo(nil)); n != Stride(k) {
			t.Errorf("%v: AppendTo emitted %d values, Stride is %d", k, n, Stride(k))
		}

		var s Set
		if got := s.Get(k); got != nil {
			t.Errorf("%v: Get on an empty Set = %#v, want untyped nil", k, got)
		}
		if err := s.Put(d); err != nil {
			t.Fatalf("%v: Put: %v", k, err)
		}
		if got := s.Get(k); got != d {
			t.Errorf("%v: Get after Put = %p, want %p", k, got, d)
		}
		for _, other := range AllKinds() {
			if other != k && s.Get(other) != nil {
				t.Errorf("Put of a %v filled the %v slot", k, other)
			}
		}
		// A typed-nil pointer of the kind's own type empties the slot.
		typedNil := reflect.Zero(reflect.TypeOf(d)).Interface().(Descriptor)
		if err := s.Put(typedNil); err != nil {
			t.Fatalf("%v: Put of a typed nil: %v", k, err)
		}
		if got := s.Get(k); got != nil {
			t.Errorf("%v: Get after Put of a typed nil = %#v, want untyped nil", k, got)
		}
	}
	if err := new(Set).Put(nil); err == nil {
		t.Error("Put(nil) accepted")
	}

	for _, k := range []Kind{-1, NumKinds} {
		if BoundSupported(k) {
			t.Errorf("BoundSupported(%d) = true", int(k))
		}
		if got, want := k.String(), fmt.Sprintf("kind(%d)", int(k)); got != want {
			t.Errorf("String = %q, want %q", got, want)
		}
		if _, err := ExtractWith(k, p); err == nil {
			t.Errorf("ExtractWith(%d) accepted", int(k))
		}
		if _, err := Parse(k, "RGB 256"); err == nil {
			t.Errorf("Parse(%d) accepted", int(k))
		}
		if new(Set).Get(k) != nil {
			t.Errorf("Get(%d) returned a descriptor", int(k))
		}
	}
}
