package sources

import (
	"strings"
	"testing"
)

// FuzzParseFormats asserts no repository parser panics on arbitrary dumps.
func FuzzParseFormats(f *testing.F) {
	recs := Generate(1, GenOptions{N: 3})
	for _, fk := range []Format{FormatGenBank, FormatFASTA, FormatACeDB, FormatCSV} {
		f.Add(uint8(fk), Render(fk, recs))
	}
	f.Add(uint8(FormatGenBank), "LOCUS\nORIGIN\n//")
	f.Add(uint8(FormatFASTA), ">x |\nACGT")
	f.Add(uint8(FormatACeDB), "Sequence : \"x\n\tDNA\t\"A")
	f.Add(uint8(FormatCSV), "id,version\n,,,,")
	f.Fuzz(func(t *testing.T, kind uint8, text string) {
		fk := Format(kind % 4)
		recs, err := Parse(fk, text)
		if err == nil {
			// Whatever parses must re-render and re-parse to the same count.
			again, err2 := Parse(fk, Render(fk, recs))
			if err2 != nil {
				t.Fatalf("re-parse of rendered output failed: %v", err2)
			}
			if len(again) != len(recs) {
				t.Fatalf("render/parse count drift: %d vs %d", len(again), len(recs))
			}
		}
	})
}

// TestParseRegressionCorpus pins the parser inputs the fuzzer's seed corpus
// and past hunts flagged as interesting: every entry must parse (or fail)
// without panicking, and anything that parses must survive a
// render/re-parse round trip. Fuzzer-found crashers get appended here so
// the fix stays regression-tested even on toolchains without fuzzing.
func TestParseRegressionCorpus(t *testing.T) {
	cases := []struct {
		format Format
		text   string
	}{
		{FormatGenBank, "LOCUS\nORIGIN\n//"},
		{FormatGenBank, "LOCUS X\n//\n//"},
		{FormatGenBank, "LOCUS Y 4 bp\nORIGIN\n 1 acgt"}, // unterminated record
		{FormatFASTA, ">x |\nACGT"},
		{FormatFASTA, ">"},
		{FormatFASTA, ">a\n>b\n>c"},
		{FormatACeDB, "Sequence : \"x\n\tDNA\t\"A"},
		{FormatACeDB, "Sequence : \"\\\""},
		{FormatACeDB, "\t\t\t"},
		{FormatCSV, "id,version\n,,,,"},
		{FormatCSV, ","},
		{FormatCSV, "id,version,organism,description,sequence,exons\nA,x,o,d,ACGT,"},
		{FormatGenBank, ""},
		{FormatFASTA, "\x00\xff"},
		{FormatCSV, "id,version,organism,description,sequence,exons\n\"unclosed,1,o,d,ACGT,"},
		// A '>' inside a sequence line that Render's re-wrap would move to
		// a line start, turning one record into two.
		{FormatFASTA, ">\n" + strings.Repeat("0", 55) + "\n" + strings.Repeat("0", 15) + ">"},
	}
	for i, tc := range cases {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("case %d (%v): parser panicked: %v", i, tc.format, r)
				}
			}()
			recs, err := Parse(tc.format, tc.text)
			if err != nil {
				return
			}
			again, err2 := Parse(tc.format, Render(tc.format, recs))
			if err2 != nil {
				t.Errorf("case %d (%v): re-parse failed: %v", i, tc.format, err2)
			} else if len(again) != len(recs) {
				t.Errorf("case %d (%v): count drift %d vs %d", i, tc.format, len(recs), len(again))
			}
		}()
	}
}
