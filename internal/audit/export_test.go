package audit

import "slices"

// DecodeSplit and DecodeOnePass are DecodeRecords' two routes, exposed
// to the tests: the pieces of body cut at cuts and at its end, decoded on
// procs goroutines, and one goroutine over the whole body.
func DecodeSplit(dst []Record, body []byte, cuts []int, limit, procs int) ([]Record, bool) {
	ends := append(slices.Clone(cuts), len(body))
	if len(body) == 0 {
		ends = nil
	}
	return decodeSplit(dst, body, ends, limit, procs)
}

func DecodeOnePass(dst []Record, body []byte, limit int) ([]Record, error) {
	return (&lineDecoder{names: make(map[string]string, 32)}).lines(dst, body, limit)
}
