package policy

import (
	"bytes"
	"testing"
)

// FuzzUnmarshal feeds arbitrary bytes to the policy-document decoder,
// the twin of sm.FuzzMADParse for the one state-sync trailer that
// package cannot parse. A hostile sync MAD must not panic the standby
// that reads it (the seeds include a blob declaring each feature the
// document dropped, which must be refused), an accepted blob is read to
// its last byte so it must marshal back to itself, and the compiler a promoted master hands the
// document to must answer with intent or an error.
func FuzzUnmarshal(f *testing.F) {
	blob := Marshal(testDoc())
	f.Add(blob)
	f.Add(blob[:len(blob)-1])
	f.Add(append(blob[:len(blob):len(blob)], 0))
	f.Add([]byte("IBPL"))
	f.Add([]byte("XXXX"))
	for _, name := range []string{"limited members", "alternate sources", "per-switch modes", "per-switch pin"} {
		f.Add(droppedFeatureBlobs()[name])
	}

	f.Fuzz(func(t *testing.T, blob []byte) {
		doc, err := Unmarshal(blob)
		if err != nil {
			return
		}
		if !bytes.Equal(Marshal(doc), blob) {
			t.Fatal("accepted document does not round-trip")
		}
		if intent, err := Compile(doc, 16); (intent == nil) == (err == nil) {
			t.Fatalf("Compile returned intent %v and error %v", intent, err)
		}
	})
}
