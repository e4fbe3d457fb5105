package units

// PointInRegionAt exposes the plumbline of the inside kernels to the
// external tests, which hold it to the static region's point test.
var PointInRegionAt = pointInRegionAt
