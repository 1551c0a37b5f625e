# Convenience targets; everything is plain dune underneath.

.PHONY: all build test fmt examples figures fuzz clean

all: build

build:
	dune build @all

test:
	dune runtest --force

# Requires ocamlformat (pinned in .ocamlformat); CI enforces this.
fmt:
	dune build @fmt --auto-promote

examples:
	dune build @examples

figures:
	dune exec bin/rn_cli.exe -- figures --out plots

fuzz:
	dune exec bin/rn_fuzz.exe -- 200

clean:
	dune clean
