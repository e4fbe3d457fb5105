// motables prints the type system tables of the paper from typesys:
// Table 1 (abstract type system), Table 2 (discrete type system) and
// Table 3 (abstract↔discrete correspondence), then the operation table
// of the query language, internal/db's one list of the SQL functions
// that run. `make docs` writes its output to docs/tables.txt.
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"

	"movingdb/internal/db"
	"movingdb/internal/typesys"
)

func main() {
	if err := write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "motables:", err)
		os.Exit(1)
	}
}

// write prints the three tables to w, then every signature
// db.Operations lists, grouped under its operation's name.
func write(w io.Writer) error {
	b := bufio.NewWriter(w)
	fmt.Fprintln(b, "Table 1: Signature describing the abstract type system")
	fmt.Fprintln(b, "-------------------------------------------------------")
	fmt.Fprint(b, typesys.Abstract().FormatTable())
	fmt.Fprintf(b, "(%d generated types)\n\n", len(typesys.Abstract().Types()))

	fmt.Fprintln(b, "Table 2: Signature describing the discrete type system")
	fmt.Fprintln(b, "-------------------------------------------------------")
	fmt.Fprint(b, typesys.Discrete().FormatTable())
	fmt.Fprintf(b, "(%d generated types)\n\n", len(typesys.Discrete().Types()))

	fmt.Fprintln(b, "Table 3: Correspondence between abstract and discrete temporal types")
	fmt.Fprintln(b, "---------------------------------------------------------------------")
	fmt.Fprint(b, typesys.FormatTable3())

	fmt.Fprintln(b, "\nOperations (the SQL functions of internal/db, in registration order)")
	fmt.Fprintln(b, "---------------------------------------------------------------------")
	name := ""
	for _, sig := range db.Operations() {
		if sig.Name != name {
			name = sig.Name
			fmt.Fprintln(b, name)
		}
		args := make([]string, len(sig.Args))
		for i, a := range sig.Args {
			args[i] = a.String()
		}
		fmt.Fprintf(b, "    %s -> %s\n", strings.Join(args, " × "), sig.Result)
	}
	return b.Flush()
}
