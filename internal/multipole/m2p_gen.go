// Code generated by m2pgen; DO NOT EDIT.

package multipole

import "math"

// MaxGeneratedOrder is the highest truncation order with a generated
// straight-line M2P kernel; higher orders run the table-interpreted path.
const MaxGeneratedOrder = 4

// m2pKernels[q] evaluates moments m, truncated at order q, at separation
// (x, y, z) = sink - center, returning the kernel sum and its gradient.
// Scalars in, scalars out: arrays would travel through memory.
var m2pKernels = [MaxGeneratedOrder + 1]func(m []float64, x, y, z float64) (phi, ax, ay, az float64){m2p0, m2p1, m2p2, m2p3, m2p4}

// m2p0 is the M2P kernel truncated at order 0: moments m[:1] against the
// 4 derivatives of 1/r up to order 1.
func m2p0(m []float64, x, y, z float64) (phi, ax, ay, az float64) {
	_ = m[0]
	r2 := x*x + y*y + z*z
	if r2 == 0 {
		panic("multipole: Derivatives at zero separation")
	}
	invR2 := 1 / r2
	d0 := 1 / math.Sqrt(r2)
	s1 := invR2 / 1
	d1 := (-1 * d0 * x) * s1
	d2 := (-1 * d0 * y) * s1
	d3 := (-1 * d0 * z) * s1
	var c float64
	c = m[0]
	phi += c * d0
	ax += c * d1
	ay += c * d2
	az += c * d3
	return phi, ax, ay, az
}

// m2p1 is the M2P kernel truncated at order 1: moments m[:4] against the
// 10 derivatives of 1/r up to order 2.
func m2p1(m []float64, x, y, z float64) (phi, ax, ay, az float64) {
	_ = m[3]
	r2 := x*x + y*y + z*z
	if r2 == 0 {
		panic("multipole: Derivatives at zero separation")
	}
	invR2 := 1 / r2
	d0 := 1 / math.Sqrt(r2)
	s1 := invR2 / 1
	d1 := (-1 * d0 * x) * s1
	d2 := (-1 * d0 * y) * s1
	d3 := (-1 * d0 * z) * s1
	s2 := invR2 / 2
	d4 := (-6*d1*x + -2*d0) * s2
	d5 := (-3*d2*x + -3*d1*y) * s2
	d6 := (-3*d3*x + -3*d1*z) * s2
	d7 := (-6*d2*y + -2*d0) * s2
	d8 := (-3*d3*y + -3*d2*z) * s2
	d9 := (-6*d3*z + -2*d0) * s2
	var c float64
	c = m[0]
	phi += c * d0
	ax += c * d1
	ay += c * d2
	az += c * d3
	c = -m[1]
	phi += c * d1
	ax += c * d4
	ay += c * d5
	az += c * d6
	c = -m[2]
	phi += c * d2
	ax += c * d5
	ay += c * d7
	az += c * d8
	c = -m[3]
	phi += c * d3
	ax += c * d6
	ay += c * d8
	az += c * d9
	return phi, ax, ay, az
}

// m2p2 is the M2P kernel truncated at order 2: moments m[:10] against the
// 20 derivatives of 1/r up to order 3.
func m2p2(m []float64, x, y, z float64) (phi, ax, ay, az float64) {
	_ = m[9]
	r2 := x*x + y*y + z*z
	if r2 == 0 {
		panic("multipole: Derivatives at zero separation")
	}
	invR2 := 1 / r2
	d0 := 1 / math.Sqrt(r2)
	s1 := invR2 / 1
	d1 := (-1 * d0 * x) * s1
	d2 := (-1 * d0 * y) * s1
	d3 := (-1 * d0 * z) * s1
	s2 := invR2 / 2
	d4 := (-6*d1*x + -2*d0) * s2
	d5 := (-3*d2*x + -3*d1*y) * s2
	d6 := (-3*d3*x + -3*d1*z) * s2
	d7 := (-6*d2*y + -2*d0) * s2
	d8 := (-3*d3*y + -3*d2*z) * s2
	d9 := (-6*d3*z + -2*d0) * s2
	s3 := invR2 / 3
	d10 := (-15*d4*x + -12*d1) * s3
	d11 := (-10*d5*x + -4*d2 + -5*d4*y) * s3
	d12 := (-10*d6*x + -4*d3 + -5*d4*z) * s3
	d13 := (-5*d7*x + -10*d5*y + -4*d1) * s3
	d14 := (-5*d8*x + -5*d6*y + -5*d5*z) * s3
	d15 := (-5*d9*x + -10*d6*z + -4*d1) * s3
	d16 := (-15*d7*y + -12*d2) * s3
	d17 := (-10*d8*y + -4*d3 + -5*d7*z) * s3
	d18 := (-5*d9*y + -10*d8*z + -4*d2) * s3
	d19 := (-15*d9*z + -12*d3) * s3
	var c float64
	c = m[0]
	phi += c * d0
	ax += c * d1
	ay += c * d2
	az += c * d3
	c = -m[1]
	phi += c * d1
	ax += c * d4
	ay += c * d5
	az += c * d6
	c = -m[2]
	phi += c * d2
	ax += c * d5
	ay += c * d7
	az += c * d8
	c = -m[3]
	phi += c * d3
	ax += c * d6
	ay += c * d8
	az += c * d9
	c = (1.0 / 2) * m[4]
	phi += c * d4
	ax += c * d10
	ay += c * d11
	az += c * d12
	c = m[5]
	phi += c * d5
	ax += c * d11
	ay += c * d13
	az += c * d14
	c = m[6]
	phi += c * d6
	ax += c * d12
	ay += c * d14
	az += c * d15
	c = (1.0 / 2) * m[7]
	phi += c * d7
	ax += c * d13
	ay += c * d16
	az += c * d17
	c = m[8]
	phi += c * d8
	ax += c * d14
	ay += c * d17
	az += c * d18
	c = (1.0 / 2) * m[9]
	phi += c * d9
	ax += c * d15
	ay += c * d18
	az += c * d19
	return phi, ax, ay, az
}

// m2p3 is the M2P kernel truncated at order 3: moments m[:20] against the
// 35 derivatives of 1/r up to order 4.
func m2p3(m []float64, x, y, z float64) (phi, ax, ay, az float64) {
	_ = m[19]
	r2 := x*x + y*y + z*z
	if r2 == 0 {
		panic("multipole: Derivatives at zero separation")
	}
	invR2 := 1 / r2
	d0 := 1 / math.Sqrt(r2)
	s1 := invR2 / 1
	d1 := (-1 * d0 * x) * s1
	d2 := (-1 * d0 * y) * s1
	d3 := (-1 * d0 * z) * s1
	s2 := invR2 / 2
	d4 := (-6*d1*x + -2*d0) * s2
	d5 := (-3*d2*x + -3*d1*y) * s2
	d6 := (-3*d3*x + -3*d1*z) * s2
	d7 := (-6*d2*y + -2*d0) * s2
	d8 := (-3*d3*y + -3*d2*z) * s2
	d9 := (-6*d3*z + -2*d0) * s2
	s3 := invR2 / 3
	d10 := (-15*d4*x + -12*d1) * s3
	d11 := (-10*d5*x + -4*d2 + -5*d4*y) * s3
	d12 := (-10*d6*x + -4*d3 + -5*d4*z) * s3
	d13 := (-5*d7*x + -10*d5*y + -4*d1) * s3
	d14 := (-5*d8*x + -5*d6*y + -5*d5*z) * s3
	d15 := (-5*d9*x + -10*d6*z + -4*d1) * s3
	d16 := (-15*d7*y + -12*d2) * s3
	d17 := (-10*d8*y + -4*d3 + -5*d7*z) * s3
	d18 := (-5*d9*y + -10*d8*z + -4*d2) * s3
	d19 := (-15*d9*z + -12*d3) * s3
	s4 := invR2 / 4
	d20 := (-28*d10*x + -36*d4) * s4
	d21 := (-21*d11*x + -18*d5 + -7*d10*y) * s4
	d22 := (-21*d12*x + -18*d6 + -7*d10*z) * s4
	d23 := (-14*d13*x + -6*d7 + -14*d11*y + -6*d4) * s4
	d24 := (-14*d14*x + -6*d8 + -7*d12*y + -7*d11*z) * s4
	d25 := (-14*d15*x + -6*d9 + -14*d12*z + -6*d4) * s4
	d26 := (-7*d16*x + -21*d13*y + -18*d5) * s4
	d27 := (-7*d17*x + -14*d14*y + -6*d6 + -7*d13*z) * s4
	d28 := (-7*d18*x + -7*d15*y + -14*d14*z + -6*d5) * s4
	d29 := (-7*d19*x + -21*d15*z + -18*d6) * s4
	d30 := (-28*d16*y + -36*d7) * s4
	d31 := (-21*d17*y + -18*d8 + -7*d16*z) * s4
	d32 := (-14*d18*y + -6*d9 + -14*d17*z + -6*d7) * s4
	d33 := (-7*d19*y + -21*d18*z + -18*d8) * s4
	d34 := (-28*d19*z + -36*d9) * s4
	var c float64
	c = m[0]
	phi += c * d0
	ax += c * d1
	ay += c * d2
	az += c * d3
	c = -m[1]
	phi += c * d1
	ax += c * d4
	ay += c * d5
	az += c * d6
	c = -m[2]
	phi += c * d2
	ax += c * d5
	ay += c * d7
	az += c * d8
	c = -m[3]
	phi += c * d3
	ax += c * d6
	ay += c * d8
	az += c * d9
	c = (1.0 / 2) * m[4]
	phi += c * d4
	ax += c * d10
	ay += c * d11
	az += c * d12
	c = m[5]
	phi += c * d5
	ax += c * d11
	ay += c * d13
	az += c * d14
	c = m[6]
	phi += c * d6
	ax += c * d12
	ay += c * d14
	az += c * d15
	c = (1.0 / 2) * m[7]
	phi += c * d7
	ax += c * d13
	ay += c * d16
	az += c * d17
	c = m[8]
	phi += c * d8
	ax += c * d14
	ay += c * d17
	az += c * d18
	c = (1.0 / 2) * m[9]
	phi += c * d9
	ax += c * d15
	ay += c * d18
	az += c * d19
	c = (-1.0 / 6) * m[10]
	phi += c * d10
	ax += c * d20
	ay += c * d21
	az += c * d22
	c = (-1.0 / 2) * m[11]
	phi += c * d11
	ax += c * d21
	ay += c * d23
	az += c * d24
	c = (-1.0 / 2) * m[12]
	phi += c * d12
	ax += c * d22
	ay += c * d24
	az += c * d25
	c = (-1.0 / 2) * m[13]
	phi += c * d13
	ax += c * d23
	ay += c * d26
	az += c * d27
	c = -m[14]
	phi += c * d14
	ax += c * d24
	ay += c * d27
	az += c * d28
	c = (-1.0 / 2) * m[15]
	phi += c * d15
	ax += c * d25
	ay += c * d28
	az += c * d29
	c = (-1.0 / 6) * m[16]
	phi += c * d16
	ax += c * d26
	ay += c * d30
	az += c * d31
	c = (-1.0 / 2) * m[17]
	phi += c * d17
	ax += c * d27
	ay += c * d31
	az += c * d32
	c = (-1.0 / 2) * m[18]
	phi += c * d18
	ax += c * d28
	ay += c * d32
	az += c * d33
	c = (-1.0 / 6) * m[19]
	phi += c * d19
	ax += c * d29
	ay += c * d33
	az += c * d34
	return phi, ax, ay, az
}

// m2p4 is the M2P kernel truncated at order 4: moments m[:35] against the
// 56 derivatives of 1/r up to order 5.
func m2p4(m []float64, x, y, z float64) (phi, ax, ay, az float64) {
	_ = m[34]
	r2 := x*x + y*y + z*z
	if r2 == 0 {
		panic("multipole: Derivatives at zero separation")
	}
	invR2 := 1 / r2
	d0 := 1 / math.Sqrt(r2)
	s1 := invR2 / 1
	d1 := (-1 * d0 * x) * s1
	d2 := (-1 * d0 * y) * s1
	d3 := (-1 * d0 * z) * s1
	s2 := invR2 / 2
	d4 := (-6*d1*x + -2*d0) * s2
	d5 := (-3*d2*x + -3*d1*y) * s2
	d6 := (-3*d3*x + -3*d1*z) * s2
	d7 := (-6*d2*y + -2*d0) * s2
	d8 := (-3*d3*y + -3*d2*z) * s2
	d9 := (-6*d3*z + -2*d0) * s2
	s3 := invR2 / 3
	d10 := (-15*d4*x + -12*d1) * s3
	d11 := (-10*d5*x + -4*d2 + -5*d4*y) * s3
	d12 := (-10*d6*x + -4*d3 + -5*d4*z) * s3
	d13 := (-5*d7*x + -10*d5*y + -4*d1) * s3
	d14 := (-5*d8*x + -5*d6*y + -5*d5*z) * s3
	d15 := (-5*d9*x + -10*d6*z + -4*d1) * s3
	d16 := (-15*d7*y + -12*d2) * s3
	d17 := (-10*d8*y + -4*d3 + -5*d7*z) * s3
	d18 := (-5*d9*y + -10*d8*z + -4*d2) * s3
	d19 := (-15*d9*z + -12*d3) * s3
	s4 := invR2 / 4
	d20 := (-28*d10*x + -36*d4) * s4
	d21 := (-21*d11*x + -18*d5 + -7*d10*y) * s4
	d22 := (-21*d12*x + -18*d6 + -7*d10*z) * s4
	d23 := (-14*d13*x + -6*d7 + -14*d11*y + -6*d4) * s4
	d24 := (-14*d14*x + -6*d8 + -7*d12*y + -7*d11*z) * s4
	d25 := (-14*d15*x + -6*d9 + -14*d12*z + -6*d4) * s4
	d26 := (-7*d16*x + -21*d13*y + -18*d5) * s4
	d27 := (-7*d17*x + -14*d14*y + -6*d6 + -7*d13*z) * s4
	d28 := (-7*d18*x + -7*d15*y + -14*d14*z + -6*d5) * s4
	d29 := (-7*d19*x + -21*d15*z + -18*d6) * s4
	d30 := (-28*d16*y + -36*d7) * s4
	d31 := (-21*d17*y + -18*d8 + -7*d16*z) * s4
	d32 := (-14*d18*y + -6*d9 + -14*d17*z + -6*d7) * s4
	d33 := (-7*d19*y + -21*d18*z + -18*d8) * s4
	d34 := (-28*d19*z + -36*d9) * s4
	s5 := invR2 / 5
	d35 := (-45*d20*x + -80*d10) * s5
	d36 := (-36*d21*x + -48*d11 + -9*d20*y) * s5
	d37 := (-36*d22*x + -48*d12 + -9*d20*z) * s5
	d38 := (-27*d23*x + -24*d13 + -18*d21*y + -8*d10) * s5
	d39 := (-27*d24*x + -24*d14 + -9*d22*y + -9*d21*z) * s5
	d40 := (-27*d25*x + -24*d15 + -18*d22*z + -8*d10) * s5
	d41 := (-18*d26*x + -8*d16 + -27*d23*y + -24*d11) * s5
	d42 := (-18*d27*x + -8*d17 + -18*d24*y + -8*d12 + -9*d23*z) * s5
	d43 := (-18*d28*x + -8*d18 + -9*d25*y + -18*d24*z + -8*d11) * s5
	d44 := (-18*d29*x + -8*d19 + -27*d25*z + -24*d12) * s5
	d45 := (-9*d30*x + -36*d26*y + -48*d13) * s5
	d46 := (-9*d31*x + -27*d27*y + -24*d14 + -9*d26*z) * s5
	d47 := (-9*d32*x + -18*d28*y + -8*d15 + -18*d27*z + -8*d13) * s5
	d48 := (-9*d33*x + -9*d29*y + -27*d28*z + -24*d14) * s5
	d49 := (-9*d34*x + -36*d29*z + -48*d15) * s5
	d50 := (-45*d30*y + -80*d16) * s5
	d51 := (-36*d31*y + -48*d17 + -9*d30*z) * s5
	d52 := (-27*d32*y + -24*d18 + -18*d31*z + -8*d16) * s5
	d53 := (-18*d33*y + -8*d19 + -27*d32*z + -24*d17) * s5
	d54 := (-9*d34*y + -36*d33*z + -48*d18) * s5
	d55 := (-45*d34*z + -80*d19) * s5
	var c float64
	c = m[0]
	phi += c * d0
	ax += c * d1
	ay += c * d2
	az += c * d3
	c = -m[1]
	phi += c * d1
	ax += c * d4
	ay += c * d5
	az += c * d6
	c = -m[2]
	phi += c * d2
	ax += c * d5
	ay += c * d7
	az += c * d8
	c = -m[3]
	phi += c * d3
	ax += c * d6
	ay += c * d8
	az += c * d9
	c = (1.0 / 2) * m[4]
	phi += c * d4
	ax += c * d10
	ay += c * d11
	az += c * d12
	c = m[5]
	phi += c * d5
	ax += c * d11
	ay += c * d13
	az += c * d14
	c = m[6]
	phi += c * d6
	ax += c * d12
	ay += c * d14
	az += c * d15
	c = (1.0 / 2) * m[7]
	phi += c * d7
	ax += c * d13
	ay += c * d16
	az += c * d17
	c = m[8]
	phi += c * d8
	ax += c * d14
	ay += c * d17
	az += c * d18
	c = (1.0 / 2) * m[9]
	phi += c * d9
	ax += c * d15
	ay += c * d18
	az += c * d19
	c = (-1.0 / 6) * m[10]
	phi += c * d10
	ax += c * d20
	ay += c * d21
	az += c * d22
	c = (-1.0 / 2) * m[11]
	phi += c * d11
	ax += c * d21
	ay += c * d23
	az += c * d24
	c = (-1.0 / 2) * m[12]
	phi += c * d12
	ax += c * d22
	ay += c * d24
	az += c * d25
	c = (-1.0 / 2) * m[13]
	phi += c * d13
	ax += c * d23
	ay += c * d26
	az += c * d27
	c = -m[14]
	phi += c * d14
	ax += c * d24
	ay += c * d27
	az += c * d28
	c = (-1.0 / 2) * m[15]
	phi += c * d15
	ax += c * d25
	ay += c * d28
	az += c * d29
	c = (-1.0 / 6) * m[16]
	phi += c * d16
	ax += c * d26
	ay += c * d30
	az += c * d31
	c = (-1.0 / 2) * m[17]
	phi += c * d17
	ax += c * d27
	ay += c * d31
	az += c * d32
	c = (-1.0 / 2) * m[18]
	phi += c * d18
	ax += c * d28
	ay += c * d32
	az += c * d33
	c = (-1.0 / 6) * m[19]
	phi += c * d19
	ax += c * d29
	ay += c * d33
	az += c * d34
	c = (1.0 / 24) * m[20]
	phi += c * d20
	ax += c * d35
	ay += c * d36
	az += c * d37
	c = (1.0 / 6) * m[21]
	phi += c * d21
	ax += c * d36
	ay += c * d38
	az += c * d39
	c = (1.0 / 6) * m[22]
	phi += c * d22
	ax += c * d37
	ay += c * d39
	az += c * d40
	c = (1.0 / 4) * m[23]
	phi += c * d23
	ax += c * d38
	ay += c * d41
	az += c * d42
	c = (1.0 / 2) * m[24]
	phi += c * d24
	ax += c * d39
	ay += c * d42
	az += c * d43
	c = (1.0 / 4) * m[25]
	phi += c * d25
	ax += c * d40
	ay += c * d43
	az += c * d44
	c = (1.0 / 6) * m[26]
	phi += c * d26
	ax += c * d41
	ay += c * d45
	az += c * d46
	c = (1.0 / 2) * m[27]
	phi += c * d27
	ax += c * d42
	ay += c * d46
	az += c * d47
	c = (1.0 / 2) * m[28]
	phi += c * d28
	ax += c * d43
	ay += c * d47
	az += c * d48
	c = (1.0 / 6) * m[29]
	phi += c * d29
	ax += c * d44
	ay += c * d48
	az += c * d49
	c = (1.0 / 24) * m[30]
	phi += c * d30
	ax += c * d45
	ay += c * d50
	az += c * d51
	c = (1.0 / 6) * m[31]
	phi += c * d31
	ax += c * d46
	ay += c * d51
	az += c * d52
	c = (1.0 / 4) * m[32]
	phi += c * d32
	ax += c * d47
	ay += c * d52
	az += c * d53
	c = (1.0 / 6) * m[33]
	phi += c * d33
	ax += c * d48
	ay += c * d53
	az += c * d54
	c = (1.0 / 24) * m[34]
	phi += c * d34
	ax += c * d49
	ay += c * d54
	az += c * d55
	return phi, ax, ay, az
}
