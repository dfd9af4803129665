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
			t.Fatalf("Metrics has a %s field: teach this test about it", v.Kind())
		}
	}
	rv := reflect.ValueOf(&m).Elem()
	for i := 0; i < rv.NumField(); i++ {
		set(rv.Field(i))
	}
	return m
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
