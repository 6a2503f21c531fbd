package trace_test

import (
	"bytes"
	"testing"

	"fcatch/internal/trace"
)

// FuzzDecode throws arbitrary bytes at the format-sniffing decoder. The
// contract under fuzzing: never panic, never hang, and any stream that
// decodes cleanly must re-encode cleanly (the decoded trace is internally
// consistent).
func FuzzDecode(f *testing.F) {
	// Seed with a valid stream and a truncated one, the bare magic, the
	// older generations' prefixes (rejected up front), and garbage.
	var fct2 bytes.Buffer
	if err := randomTrace(1, 40).Encode(&fct2); err != nil {
		f.Fatal(err)
	}
	f.Add(fct2.Bytes())
	f.Add(fct2.Bytes()[:fct2.Len()/2])
	f.Add([]byte(trace.FormatMagic))
	f.Add([]byte("FCT1"))
	f.Add([]byte("not a trace"))
	f.Add([]byte{0x1f, 0x8b}) // bare gzip magic
	f.Add([]byte{0x1f, 0x8b, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := trace.Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := got.Encode(&out); err != nil {
			t.Fatalf("decoded trace fails to re-encode: %v", err)
		}
	})
}
