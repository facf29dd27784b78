package wire

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from the current encoder")

// goldenView names the tags DecodeView leaves in place as a *View; every
// other tag decodes to its owned struct. Spelled out here, not derived from
// viewTag, so moving a tag in or out of the view set has to change this
// test too.
var goldenView = map[string]bool{
	"StealRequest": true, "StealReply": true, "StealConfirm": true, "Arg": true, "Ack": true,
}

// TestGolden pins the bytes on the wire: one committed frame per entry of
// everyPayload, which must decode to that entry, re-encode to the same
// bytes, and carry the current frame version. A renumbered tag or value kind, or a
// reordered field, fails here before it reaches a peer built from another
// commit. Regenerate with
//
//	go test ./internal/wire/ -run TestGolden -update
//
// only when the format is meant to change.
func TestGolden(t *testing.T) {
	dir := filepath.Join("testdata", "golden")
	payloads := everyPayload()
	names := make(map[string]bool)
	tags := make(map[string]bool)
	for i, p := range payloads {
		env := &Envelope{Job: 2, From: -1, To: 5, Seq: 77, Payload: p}
		tag := tagName(payloadTag(p))
		tags[tag] = true
		name := fmt.Sprintf("%02d-%s.hex", i, tag)
		names[name] = true
		path := filepath.Join(dir, name)
		if *updateGolden {
			frame, err := Encode(env)
			if err != nil {
				t.Fatalf("%s: encode: %v", name, err)
			}
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(hex.EncodeToString(frame)+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create the corpus)", err)
		}
		want, err := hex.DecodeString(string(bytes.TrimSpace(text)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := Decode(want)
		if err != nil {
			t.Errorf("%s: decode: %v", name, err)
			continue
		}
		if !reflect.DeepEqual(got, env) {
			t.Errorf("%s: decoded to\n %#v\nwant\n %#v", name, got, env)
		}
		if re, err := Encode(got); err != nil || !bytes.Equal(re, want) {
			t.Errorf("%s: re-encode differs from the committed frame (err %v)\n got  %x\n want %x", name, err, re, want)
		}
		if want[4] != frameVersion {
			t.Errorf("%s: frame version %d, want %d", name, want[4], frameVersion)
		}
		venv, err := DecodeView(want, nil)
		if err != nil {
			t.Errorf("%s: DecodeView: %v", name, err)
			continue
		}
		if _, isView := venv.Payload.(*View); isView != goldenView[tag] {
			t.Errorf("%s: DecodeView payload %T, view form expected: %v", name, venv.Payload, goldenView[tag])
		}
		venv.Free()
	}
	if *updateGolden {
		return
	}
	if len(tags) != 30 {
		t.Errorf("corpus covers %d tags, want 30 (29 message types and the nil payload)", len(tags))
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !names[f.Name()] {
			t.Errorf("stale corpus file %s", f.Name())
		}
	}
}
