package multipole

// BHAccept implements the classic Barnes–Hut opening criterion: the cell of
// size `size` at distance d is accepted when size/d < theta, with the
// additional WS93 safety that d must exceed bmax.
func BHAccept(size, bmax, d, theta float64) bool {
	if d <= bmax {
		return false
	}
	return size < theta*d
}
