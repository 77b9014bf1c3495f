package gen

import (
	"fmt"
	"strings"
)

// BioXML generates a gene-annotation document following the DTD of Figure
// 17: chromosome(name, gene*), gene(name, strand, biotype, status,
// description?, promoter, sequence, transcript*), transcript(name, start,
// end, exon*, sequence, protein?), exon(name, start, end, sequence).
//
// As in the paper's Ensembl-derived data, the textual content is *highly
// repetitive*: each transcript's sequence is the concatenation of its
// exons' sequences, so the same DNA appears in many texts — the case the
// paper's run-length index (RLCSA) targets (Section 6.7).
func BioXML(seed uint64, targetBytes int) []byte {
	r := NewRNG(seed)
	var sb strings.Builder
	sb.Grow(targetBytes + 8192)
	sb.WriteString("<chromosome><name>5</name>")
	geneID := 0
	for sb.Len() < targetBytes {
		writeGene(r, &sb, geneID)
		geneID++
	}
	sb.WriteString("</chromosome>")
	return []byte(sb.String())
}

var dnaBases = [4]byte{'A', 'C', 'G', 'T'}

func dna(r *RNG, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = dnaBases[r.Intn(4)]
	}
	return string(b)
}

var biotypes = []string{"protein_coding", "pseudogene", "lincRNA", "miRNA", "snoRNA"}
var statuses = []string{"KNOWN", "NOVEL", "PUTATIVE"}

func writeGene(r *RNG, sb *strings.Builder, id int) {
	fmt.Fprintf(sb, "<gene><name>ENSG%011d</name>", id)
	sb.WriteString("<strand>" + []string{"+", "-"}[r.Intn(2)] + "</strand>")
	sb.WriteString("<biotype>" + biotypes[r.Intn(len(biotypes))] + "</biotype>")
	sb.WriteString("<status>" + statuses[r.Intn(len(statuses))] + "</status>")
	if r.Intn(2) == 0 {
		sb.WriteString("<description>" + geneDescription(r) + "</description>")
	}
	// 1000 bp of upstream promoter sequence, as in the paper.
	sb.WriteString("<promoter>" + dna(r, 1000) + "</promoter>")

	// Exons are generated once per gene; transcripts reuse subsets of them,
	// giving the highly repetitive collection of Section 6.7.
	nExons := 3 + r.Intn(8)
	exons := make([]string, nExons)
	for i := range exons {
		exons[i] = dna(r, 150+r.Intn(400))
	}
	geneSeq := strings.Join(exons, dna(r, 80)) // exons joined by introns
	sb.WriteString("<sequence>" + geneSeq + "</sequence>")

	start := 1000000 + r.Intn(100000000)
	nTrans := 1 + r.Intn(4)
	for t := 0; t < nTrans; t++ {
		fmt.Fprintf(sb, "<transcript><name>ENST%011d</name>", id*10+t)
		fmt.Fprintf(sb, "<start>%d</start><end>%d</end>", start, start+len(geneSeq))
		// A transcript includes a contiguous-ish subset of the exons.
		lo := r.Intn(nExons)
		hi := lo + 1 + r.Intn(nExons-lo)
		var concat strings.Builder
		for e := lo; e < hi; e++ {
			fmt.Fprintf(sb, "<exon><name>ENSE%011d</name><start>%d</start><end>%d</end><sequence>%s</sequence></exon>",
				id*100+e, start+e*500, start+e*500+len(exons[e]), exons[e])
			concat.WriteString(exons[e])
		}
		sb.WriteString("<sequence>" + concat.String() + "</sequence>")
		if r.Intn(2) == 0 {
			sb.WriteString("<protein>" + protein(r, 60+r.Intn(200)) + "</protein>")
		}
		sb.WriteString("</transcript>")
	}
	sb.WriteString("</gene>")
}

var aminoAcids = []byte("ACDEFGHIKLMNPQRSTVWY")

func protein(r *RNG, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = aminoAcids[r.Intn(len(aminoAcids))]
	}
	return string(b)
}

func geneDescription(r *RNG) string {
	var sb strings.Builder
	Sentence(r, &sb, 4+r.Intn(8))
	return sb.String()
}
