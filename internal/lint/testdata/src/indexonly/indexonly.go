// Fixture for the index-only check: struct fields must not store
// pointers to data-model types — database arrays are referenced by
// position (Section 4). The fixture package itself plays the role of
// the data-model package.
package indexonly

import "movingdb/internal/units"

type Unit struct{ X, Y float64 }

type Record struct {
	First *Unit // want `stores a pointer to data-model type`
	Index int   // index reference: fine
}

type Table struct {
	Units []*Unit          // want `stores a pointer to data-model type`
	ByID  map[string]*Unit // want `stores a pointer to data-model type`
	Rows  []Unit           // value slice: fine
	Name  *string          // pointer to a non-data type: fine
}

type Root struct {
	Deep [][]*Unit // want `stores a pointer to data-model type`
}

// Shapes reaches the pointer through every other composite type.
type Shapes struct {
	Fixed [4]*Unit      // want `stores a pointer to data-model type`
	ByKey map[*Unit]int // want `stores a pointer to data-model type`
	Feed  chan *Unit    // want `stores a pointer to data-model type`
	Ref   *[]*Unit      // want `stores a pointer to data-model type`
	Rows  *[]Unit       // pointer to a value slice: fine
}

// Cursor points into a real data-model package, the shape a mutation
// sweep planted in storage: no test can see a pointer field.
type Cursor struct {
	At *units.UPoint // want `stores a pointer to data-model type movingdb/internal/units.UPoint`
}
