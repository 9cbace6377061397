package vcgen

// ProveReference runs pool_test.go's sequential reference loop on e.
var ProveReference = (*Engine).proveReference

// ProveReferenceBareFirst runs the same loop with proveCond's former
// bare-then-with-facts attempt order.
var ProveReferenceBareFirst = (*Engine).proveReferenceBareFirst
