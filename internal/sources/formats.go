package sources

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Format identifies a repository's external data representation, the
// vertical axis of the paper's Figure 2.
type Format uint8

// The three Figure-2 representations. Flat files come in two dialects
// (GenBank-style and FASTA); both are "flat file" for change-detection
// purposes.
const (
	FormatGenBank Format = iota // flat file, GenBank-style
	FormatFASTA                 // flat file, FASTA
	FormatACeDB                 // hierarchical, ACeDB-style tree
	FormatCSV                   // relational, one row per record
)

// String implements fmt.Stringer.
func (f Format) String() string {
	switch f {
	case FormatGenBank:
		return "genbank"
	case FormatFASTA:
		return "fasta"
	case FormatACeDB:
		return "acedb"
	case FormatCSV:
		return "csv"
	}
	return fmt.Sprintf("format(%d)", uint8(f))
}

// Representation returns the Figure-2 row the format belongs to.
func (f Format) Representation() string {
	switch f {
	case FormatGenBank, FormatFASTA:
		return "flat file"
	case FormatACeDB:
		return "hierarchical"
	case FormatCSV:
		return "relational"
	}
	return "unknown"
}

// Render serders records into the format's textual form, records ordered by
// ID so rendering is canonical.
func Render(f Format, recs []Record) string {
	sorted := make([]Record, len(recs))
	copy(sorted, recs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	switch f {
	case FormatGenBank:
		return renderGenBank(sorted)
	case FormatFASTA:
		return renderFASTA(sorted)
	case FormatACeDB:
		return renderACeDB(sorted)
	case FormatCSV:
		return renderCSV(sorted)
	}
	return ""
}

// Parse reads records back from the format's textual form.
func Parse(f Format, text string) ([]Record, error) {
	switch f {
	case FormatGenBank:
		return parseGenBank(text)
	case FormatFASTA:
		return parseFASTA(text)
	case FormatACeDB:
		return parseACeDB(text)
	case FormatCSV:
		return parseCSV(text)
	}
	return nil, fmt.Errorf("sources: unknown format %v", f)
}

// ---- GenBank-style flat file ----

func renderGenBank(recs []Record) string {
	var sb strings.Builder
	for _, r := range recs {
		fmt.Fprintf(&sb, "LOCUS       %s %d bp DNA\n", r.ID, len(r.Sequence))
		fmt.Fprintf(&sb, "DEFINITION  %s\n", r.Description)
		fmt.Fprintf(&sb, "ACCESSION   %s\n", r.ID)
		fmt.Fprintf(&sb, "VERSION     %s.%d\n", r.ID, r.Version)
		fmt.Fprintf(&sb, "SOURCE      %s\n", r.Organism)
		fmt.Fprintf(&sb, "QUALITY     %.4f\n", r.Quality)
		if r.ExonSpec != "" {
			fmt.Fprintf(&sb, "FEATURES    exons %s\n", r.ExonSpec)
		}
		sb.WriteString("ORIGIN\n")
		for off := 0; off < len(r.Sequence); off += 60 {
			end := off + 60
			if end > len(r.Sequence) {
				end = len(r.Sequence)
			}
			fmt.Fprintf(&sb, "%9d %s\n", off+1, strings.ToLower(r.Sequence[off:end]))
		}
		sb.WriteString("//\n")
	}
	return sb.String()
}

func parseGenBank(text string) ([]Record, error) {
	var out []Record
	var cur *Record
	inOrigin := false
	for lineNo, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(line, "LOCUS"):
			if cur != nil {
				return nil, fmt.Errorf("sources: genbank line %d: LOCUS before // of previous record", lineNo+1)
			}
			cur = &Record{}
			inOrigin = false
			fields := strings.Fields(line)
			if len(fields) < 2 {
				return nil, fmt.Errorf("sources: genbank line %d: malformed LOCUS", lineNo+1)
			}
			cur.ID = fields[1]
		case cur == nil || strings.TrimSpace(line) == "":
			continue
		case strings.HasPrefix(line, "DEFINITION"):
			cur.Description = strings.TrimSpace(strings.TrimPrefix(line, "DEFINITION"))
		case strings.HasPrefix(line, "VERSION"):
			v := strings.TrimSpace(strings.TrimPrefix(line, "VERSION"))
			if dot := strings.LastIndexByte(v, '.'); dot >= 0 {
				n, err := strconv.Atoi(v[dot+1:])
				if err != nil {
					return nil, fmt.Errorf("sources: genbank line %d: bad version %q", lineNo+1, v)
				}
				cur.Version = n
			}
		case strings.HasPrefix(line, "SOURCE"):
			cur.Organism = strings.TrimSpace(strings.TrimPrefix(line, "SOURCE"))
		case strings.HasPrefix(line, "QUALITY"):
			q, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, "QUALITY")), 64)
			if err != nil {
				return nil, fmt.Errorf("sources: genbank line %d: bad quality", lineNo+1)
			}
			cur.Quality = q
		case strings.HasPrefix(line, "FEATURES"):
			f := strings.Fields(line)
			if len(f) == 3 && f[1] == "exons" {
				cur.ExonSpec = f[2]
			}
		case strings.HasPrefix(line, "ACCESSION"):
			// redundant with LOCUS
		case strings.HasPrefix(line, "ORIGIN"):
			inOrigin = true
		case strings.HasPrefix(line, "//"):
			out = append(out, *cur)
			cur = nil
			inOrigin = false
		case inOrigin:
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				cur.Sequence += strings.ToUpper(strings.Join(fields[1:], ""))
			}
		}
	}
	if cur != nil {
		return nil, fmt.Errorf("sources: genbank: record %s not terminated by //", cur.ID)
	}
	return out, nil
}

// ---- FASTA flat file ----
//
// The description line carries key=value metadata after the free text:
// >ID description | organism=... version=N quality=0.97 exons=0-40,80-120

func renderFASTA(recs []Record) string {
	var sb strings.Builder
	for _, r := range recs {
		fmt.Fprintf(&sb, ">%s %s | organism=%s version=%d quality=%.4f",
			r.ID, r.Description, strings.ReplaceAll(r.Organism, " ", "_"), r.Version, r.Quality)
		if r.ExonSpec != "" {
			fmt.Fprintf(&sb, " exons=%s", r.ExonSpec)
		}
		sb.WriteByte('\n')
		for off := 0; off < len(r.Sequence); off += 70 {
			end := off + 70
			if end > len(r.Sequence) {
				end = len(r.Sequence)
			}
			sb.WriteString(r.Sequence[off:end])
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

func parseFASTA(text string) ([]Record, error) {
	var out []Record
	var cur *Record
	for lineNo, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, ">") {
			if cur != nil {
				out = append(out, *cur)
			}
			cur = &Record{}
			header := line[1:]
			desc := header
			meta := ""
			if bar := strings.LastIndex(header, "|"); bar >= 0 {
				desc = strings.TrimSpace(header[:bar])
				meta = strings.TrimSpace(header[bar+1:])
			}
			fields := strings.SplitN(desc, " ", 2)
			cur.ID = fields[0]
			if len(fields) > 1 {
				cur.Description = strings.TrimSpace(fields[1])
			}
			for _, kv := range strings.Fields(meta) {
				parts := strings.SplitN(kv, "=", 2)
				if len(parts) != 2 {
					return nil, fmt.Errorf("sources: fasta line %d: bad metadata %q", lineNo+1, kv)
				}
				switch parts[0] {
				case "organism":
					cur.Organism = strings.ReplaceAll(parts[1], "_", " ")
				case "version":
					n, err := strconv.Atoi(parts[1])
					if err != nil {
						return nil, fmt.Errorf("sources: fasta line %d: bad version", lineNo+1)
					}
					cur.Version = n
				case "quality":
					q, err := strconv.ParseFloat(parts[1], 64)
					if err != nil {
						return nil, fmt.Errorf("sources: fasta line %d: bad quality", lineNo+1)
					}
					cur.Quality = q
				case "exons":
					cur.ExonSpec = parts[1]
				}
			}
		} else {
			if cur == nil {
				return nil, fmt.Errorf("sources: fasta line %d: sequence before header", lineNo+1)
			}
			// Render re-wraps sequences at a fixed width, which could put
			// this '>' at a line start and read back as a header.
			if strings.Contains(line, ">") {
				return nil, fmt.Errorf("sources: fasta line %d: '>' inside a sequence line", lineNo+1)
			}
			cur.Sequence += strings.ToUpper(line)
		}
	}
	if cur != nil {
		out = append(out, *cur)
	}
	return out, nil
}

// ---- ACeDB-style hierarchical ----
//
// Sequence : "ID"
// 	Organism	"..."
// 	Description	"..."
// 	Version	N
// 	Quality	0.97
// 	Exons	"0-40,80-120"
// 	DNA	"ACGT..."

func renderACeDB(recs []Record) string {
	var sb strings.Builder
	for _, r := range recs {
		fmt.Fprintf(&sb, "Sequence : %q\n", r.ID)
		fmt.Fprintf(&sb, "\tOrganism\t%q\n", r.Organism)
		fmt.Fprintf(&sb, "\tDescription\t%q\n", r.Description)
		fmt.Fprintf(&sb, "\tVersion\t%d\n", r.Version)
		fmt.Fprintf(&sb, "\tQuality\t%.4f\n", r.Quality)
		if r.ExonSpec != "" {
			fmt.Fprintf(&sb, "\tExons\t%q\n", r.ExonSpec)
		}
		fmt.Fprintf(&sb, "\tDNA\t%q\n", r.Sequence)
		sb.WriteString("\n")
	}
	return sb.String()
}

func parseACeDB(text string) ([]Record, error) {
	var out []Record
	var cur *Record
	for lineNo, line := range strings.Split(text, "\n") {
		if strings.TrimSpace(line) == "" {
			if cur != nil {
				out = append(out, *cur)
				cur = nil
			}
			continue
		}
		if strings.HasPrefix(line, "Sequence :") {
			if cur != nil {
				out = append(out, *cur)
			}
			id, err := strconv.Unquote(strings.TrimSpace(strings.TrimPrefix(line, "Sequence :")))
			if err != nil {
				return nil, fmt.Errorf("sources: acedb line %d: bad object id", lineNo+1)
			}
			cur = &Record{ID: id}
			continue
		}
		if cur == nil {
			return nil, fmt.Errorf("sources: acedb line %d: attribute outside object", lineNo+1)
		}
		if !strings.HasPrefix(line, "\t") {
			return nil, fmt.Errorf("sources: acedb line %d: expected indented attribute", lineNo+1)
		}
		parts := strings.SplitN(strings.TrimPrefix(line, "\t"), "\t", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("sources: acedb line %d: malformed attribute", lineNo+1)
		}
		key, raw := parts[0], parts[1]
		unq := func() (string, error) {
			s, err := strconv.Unquote(raw)
			if err != nil {
				return "", fmt.Errorf("sources: acedb line %d: bad quoted value", lineNo+1)
			}
			return s, nil
		}
		var err error
		switch key {
		case "Organism":
			cur.Organism, err = unq()
		case "Description":
			cur.Description, err = unq()
		case "Exons":
			cur.ExonSpec, err = unq()
		case "DNA":
			cur.Sequence, err = unq()
		case "Version":
			cur.Version, err = strconv.Atoi(raw)
		case "Quality":
			cur.Quality, err = strconv.ParseFloat(raw, 64)
		default:
			// Unknown attributes are tolerated (schema drift, problem B3).
		}
		if err != nil {
			return nil, err
		}
	}
	if cur != nil {
		out = append(out, *cur)
	}
	return out, nil
}

// ---- relational CSV ----

const csvHeader = "id,version,organism,description,sequence,exons,quality"

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

func renderCSV(recs []Record) string {
	var sb strings.Builder
	sb.WriteString(csvHeader + "\n")
	for _, r := range recs {
		fmt.Fprintf(&sb, "%s,%d,%s,%s,%s,%s,%.4f\n",
			csvEscape(r.ID), r.Version, csvEscape(r.Organism),
			csvEscape(r.Description), r.Sequence, csvEscape(r.ExonSpec), r.Quality)
	}
	return sb.String()
}

func parseCSV(text string) ([]Record, error) {
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	if len(lines) == 0 || lines[0] != csvHeader {
		return nil, fmt.Errorf("sources: csv: missing or wrong header")
	}
	var out []Record
	for i, line := range lines[1:] {
		if strings.TrimSpace(line) == "" {
			continue
		}
		fields, err := splitCSV(line)
		if err != nil {
			return nil, fmt.Errorf("sources: csv line %d: %w", i+2, err)
		}
		if len(fields) != 7 {
			return nil, fmt.Errorf("sources: csv line %d: %d fields, want 7", i+2, len(fields))
		}
		version, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("sources: csv line %d: bad version", i+2)
		}
		quality, err := strconv.ParseFloat(fields[6], 64)
		if err != nil {
			return nil, fmt.Errorf("sources: csv line %d: bad quality", i+2)
		}
		out = append(out, Record{
			ID: fields[0], Version: version, Organism: fields[2],
			Description: fields[3], Sequence: fields[4], ExonSpec: fields[5],
			Quality: quality,
		})
	}
	return out, nil
}

func splitCSV(line string) ([]string, error) {
	var fields []string
	var cur strings.Builder
	inQuote := false
	for i := 0; i < len(line); i++ {
		ch := line[i]
		switch {
		case inQuote:
			if ch == '"' {
				if i+1 < len(line) && line[i+1] == '"' {
					cur.WriteByte('"')
					i++
				} else {
					inQuote = false
				}
			} else {
				cur.WriteByte(ch)
			}
		case ch == '"':
			inQuote = true
		case ch == ',':
			fields = append(fields, cur.String())
			cur.Reset()
		default:
			cur.WriteByte(ch)
		}
	}
	if inQuote {
		return nil, fmt.Errorf("unterminated quote")
	}
	fields = append(fields, cur.String())
	return fields, nil
}
