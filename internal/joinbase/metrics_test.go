package joinbase

import (
	"reflect"
	"testing"
)

// distinctMetrics returns a Metrics whose numeric fields (array elements
// included) all hold different non-zero values, base+1, base+2, ….
func distinctMetrics(t *testing.T, base int64) Metrics {
	t.Helper()
	var m Metrics
	var set func(v reflect.Value)
	set = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Int64:
			base++
			v.SetInt(base)
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				set(v.Index(i))
			}
		default:
			t.Fatalf("Metrics has a %s field: teach Add and this test about it", v.Kind())
		}
	}
	rv := reflect.ValueOf(&m).Elem()
	for i := 0; i < rv.NumField(); i++ {
		set(rv.Field(i))
	}
	return m
}

// TestMetricsAddCoversEveryField: Add is written out by hand, and a field
// it forgets reads zero for every sharded run (parallel sums its shards'
// counters through it) with no other test noticing. Every numeric field,
// set to a distinct value and added twice, must come out doubled.
func TestMetricsAddCoversEveryField(t *testing.T) {
	o := distinctMetrics(t, 100)
	var sum Metrics
	sum.Add(o)
	sum.Add(o)
	so, ss := reflect.ValueOf(o), reflect.ValueOf(sum)
	var cmp func(name string, a, b reflect.Value)
	cmp = func(name string, a, b reflect.Value) {
		if a.Kind() == reflect.Array {
			for i := 0; i < a.Len(); i++ {
				cmp(name, a.Index(i), b.Index(i))
			}
			return
		}
		if b.Int() != 2*a.Int() {
			t.Errorf("Add twice: %s = %d, want %d — does Add sum it?", name, b.Int(), 2*a.Int())
		}
	}
	for i := 0; i < so.NumField(); i++ {
		cmp(so.Type().Field(i).Name, so.Field(i), ss.Field(i))
	}
}

// TestTableWalkSwapsThePricedCounters: TableWalk exchanges exactly the
// three priced counters with their walk twins, so the cost model and the
// reports read the paper's regime from the fields they always read, and
// nothing else moves.
func TestTableWalkSwapsThePricedCounters(t *testing.T) {
	m := distinctMetrics(t, 0)
	tw := m.TableWalk()
	if tw.Examined != m.ProbeWalk || tw.PurgeScanned != m.PurgeWalk || tw.IndexScanned != m.IndexWalk {
		t.Errorf("TableWalk prices %d/%d/%d, want the walk counters %d/%d/%d",
			tw.Examined, tw.PurgeScanned, tw.IndexScanned, m.ProbeWalk, m.PurgeWalk, m.IndexWalk)
	}
	if back := tw.TableWalk(); back != m {
		t.Errorf("TableWalk twice is not the identity:\n%+v\n%+v", back, m)
	}
	tw.Examined, tw.ProbeWalk = m.Examined, m.ProbeWalk
	tw.PurgeScanned, tw.PurgeWalk = m.PurgeScanned, m.PurgeWalk
	tw.IndexScanned, tw.IndexWalk = m.IndexScanned, m.IndexWalk
	if tw != m {
		t.Errorf("TableWalk moved another field:\n%+v\n%+v", tw, m)
	}
}
