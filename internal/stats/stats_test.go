package stats

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestJobTotals(t *testing.T) {
	a := Snapshot{TasksExecuted: 10, MaxTasksInUse: 3, TasksStolen: 1, Synchronizations: 9,
		NonLocalSynchs: 1, MessagesSent: 5, ExecTime: 2 * time.Second, MailboxDepthMax: 130}
	b := Snapshot{TasksExecuted: 20, MaxTasksInUse: 7, TasksStolen: 2, Synchronizations: 19,
		NonLocalSynchs: 2, MessagesSent: 6, ExecTime: time.Second, MailboxDepthMax: 12}
	tot := JobTotals([]Snapshot{a, b})
	if tot.TasksExecuted != 30 || tot.TasksStolen != 3 || tot.Synchronizations != 28 ||
		tot.NonLocalSynchs != 3 || tot.MessagesSent != 11 {
		t.Errorf("bad sums: %+v", tot)
	}
	if tot.MaxTasksInUse != 7 {
		t.Errorf("max in use should be the max over workers, got %d", tot.MaxTasksInUse)
	}
	if tot.MailboxDepthMax != 130 {
		t.Errorf("mailbox depth should be the max over workers, got %d", tot.MailboxDepthMax)
	}
	if got := FromOrdered(a.Ordered()); got != a {
		t.Errorf("Ordered/FromOrdered round trip: got %+v, want %+v", got, a)
	}
	if len(a.Ordered()) != len(OrderedNames) {
		t.Errorf("Ordered has %d values for %d names", len(a.Ordered()), len(OrderedNames))
	}
	if tot.ExecTime != 2*time.Second {
		t.Errorf("exec time should be the max over workers, got %v", tot.ExecTime)
	}
	if tot.Worker != 2 {
		t.Errorf("worker count = %d, want 2", tot.Worker)
	}
}

func TestJobTotalsEmpty(t *testing.T) {
	tot := JobTotals(nil)
	if tot.TasksExecuted != 0 || tot.MaxTasksInUse != 0 {
		t.Errorf("empty totals not zero: %+v", tot)
	}
}

func TestSnapshotString(t *testing.T) {
	s := Snapshot{TasksExecuted: 42, MaxTasksInUse: 7}
	str := s.String()
	for _, want := range []string{"tasks executed 42", "max tasks in use 7", "non-local synchs"} {
		if !strings.Contains(str, want) {
			t.Errorf("String() = %q missing %q", str, want)
		}
	}
}

// Every Snapshot value travels: each field but Worker is named by exactly
// one table row, under a name no other row uses, and each Counters atomic
// but TasksInUse (a level, reported through its high-water mark) feeds
// exactly one row. A field added to the structs but not to the table
// fails here instead of silently never reaching a StatReport.
func TestCounterTableCoversSnapshot(t *testing.T) {
	var s Snapshot
	var c Counters
	sv, cv := reflect.ValueOf(&s).Elem(), reflect.ValueOf(&c).Elem()
	fieldAt := func(v reflect.Value, addr uintptr) string {
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).Addr().Pointer() == addr {
				return v.Type().Field(i).Name
			}
		}
		return ""
	}
	rows := map[string]int{}
	feeds := map[string]int{}
	names := map[string]bool{}
	for i, d := range table {
		if names[d.name] {
			t.Errorf("row %d: name %q used twice", i, d.name)
		}
		names[d.name] = true
		f := fieldAt(sv, reflect.ValueOf(d.field(&s)).Pointer())
		if f == "" {
			t.Fatalf("row %d (%s) points outside Snapshot", i, d.name)
		}
		rows[f]++
		if d.live == nil {
			continue
		}
		a := d.live(&c)
		lf := fieldAt(cv, reflect.ValueOf(a).Pointer())
		if lf != f {
			t.Errorf("row %d (%s): Snapshot.%s is read from Counters.%s", i, d.name, f, lf)
		}
		feeds[lf]++
		a.Store(int64(i + 1))
	}
	for i := 0; i < sv.NumField(); i++ {
		if f := sv.Type().Field(i).Name; f != "Worker" && rows[f] != 1 {
			t.Errorf("Snapshot.%s is named by %d table rows, want 1", f, rows[f])
		}
	}
	for i := 0; i < cv.NumField(); i++ {
		if f := cv.Type().Field(i).Name; f != "TasksInUse" && feeds[f] != 1 {
			t.Errorf("Counters.%s feeds %d table rows, want 1", f, feeds[f])
		}
	}
	got := c.Snapshot()
	for i, d := range table {
		if d.live != nil && *d.field(&got) != int64(i+1) {
			t.Errorf("Snapshot().%s = %d, want %d", d.name, *d.field(&got), i+1)
		}
	}
}
