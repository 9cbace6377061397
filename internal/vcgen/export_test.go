package vcgen

// ProveReference runs pool_test.go's sequential reference loop on e.
var ProveReference = (*Engine).proveReference
