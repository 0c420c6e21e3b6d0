// Command drmgen generates a synthetic license corpus and issuance log in
// the paper's §5 style and writes them to disk for cmd/drmaudit and
// cmd/drmserver.
//
// Usage:
//
//	drmgen -n 20 -groups 4 -seed 7 -corpus corpus.json -log log.jsonl
//
// The corpus is a self-describing JSON document; the log is JSON lines of
// {set, count} records whose set masks refer to corpus indexes. drmserver
// serves the log once drmaudit -migrate-wal has converted it to a WAL.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/license"
	"repro/internal/logstore"
	"repro/internal/overlap"
	"repro/internal/rel"
	"repro/internal/signature"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "drmgen:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("drmgen", flag.ContinueOnError)
	var (
		n          = fs.Int("n", 10, "number of redistribution licenses (1..64)")
		groups     = fs.Int("groups", 0, "planted group count (0 = paper's fig-6 curve)")
		dims       = fs.Int("dims", 4, "number of instance-based constraint axes")
		perLicense = fs.Int("records-per-license", 630, "log records per license (paper: ~630)")
		seed       = fs.Int64("seed", 1, "PRNG seed")
		corpusPath = fs.String("corpus", "corpus.json", "output path for the corpus document")
		logPath    = fs.String("log", "log.jsonl", "output path for the issuance log")
		relPath    = fs.String("rel", "", "also write the corpus in paper notation to this path")
		signedPath = fs.String("signed", "", "also write an Ed25519-signed corpus document to this path")
		keyPath    = fs.String("issuer-key", "", "write the issuer public key (base64) to this path (with -signed)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := workload.Default(*n)
	cfg.Dims = *dims
	cfg.RecordsPerLicense = *perLicense
	cfg.Seed = *seed
	if *groups > 0 {
		cfg.Groups = *groups
	}
	w, err := workload.Generate(cfg)
	if err != nil {
		return err
	}

	cf, err := os.Create(*corpusPath)
	if err != nil {
		return err
	}
	if err := license.EncodeCorpus(cf, w.Corpus); err != nil {
		cf.Close()
		return err
	}
	if err := cf.Close(); err != nil {
		return err
	}

	lf, err := os.Create(*logPath)
	if err != nil {
		return err
	}
	if err := logstore.WriteAll(lf, w.Records); err != nil {
		lf.Close()
		return err
	}
	if err := lf.Close(); err != nil {
		return err
	}

	if *relPath != "" {
		dialect, err := rel.GenericDialect(w.Corpus.Schema(), nil)
		if err != nil {
			return err
		}
		rf, err := os.Create(*relPath)
		if err != nil {
			return err
		}
		for _, l := range w.Corpus.Licenses() {
			fmt.Fprintf(rf, "%s: %s\n", l.Name, dialect.FormatLicense(l))
		}
		if err := rf.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s: corpus in paper notation\n", *relPath)
	}

	if *signedPath != "" {
		pub, priv, err := signature.GenerateKey()
		if err != nil {
			return err
		}
		sf, err := os.Create(*signedPath)
		if err != nil {
			return err
		}
		if err := signature.WriteSignedCorpus(sf, w.Corpus, priv); err != nil {
			sf.Close()
			return err
		}
		if err := sf.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s: signed corpus (issuer %s)\n", *signedPath, signature.KeyToString(pub))
		if *keyPath != "" {
			if err := os.WriteFile(*keyPath, []byte(signature.KeyToString(pub)+"\n"), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(out, "wrote %s: issuer public key\n", *keyPath)
		}
	}

	gr := overlap.GroupsOf(w.Corpus)
	fmt.Fprintf(out, "wrote %s: %d licenses over %d axes (%d groups planted, %d found)\n",
		*corpusPath, w.Corpus.Len(), cfg.Dims, cfg.Groups, gr.NumGroups())
	fmt.Fprintf(out, "wrote %s: %d issuance records\n", *logPath, len(w.Records))
	return nil
}
