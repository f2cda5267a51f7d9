package bits

// CRC16CCITT computes the CRC-16/CCITT-FALSE checksum (poly 0x1021, init
// 0xFFFF, no reflection) used by the LoRa PHY header/payload CRC in this
// reproduction and by many 868 MHz framings.
func CRC16CCITT(data []byte) uint16 {
	var crc uint16 = 0xFFFF
	for _, b := range data {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

// CRC16IBM computes the reflected CRC-16/ARC (poly 0x8005 reflected to
// 0xA001, init 0x0000), the ITU-T style checksum used by 802.15.4-class
// frames (X^16 + X^12 + X^5 + 1 equivalent implementations vary; XBee-class
// radios use this ARC form for API frames).
func CRC16IBM(data []byte) uint16 {
	var crc uint16
	for _, b := range data {
		crc ^= uint16(b)
		for i := 0; i < 8; i++ {
			if crc&1 != 0 {
				crc = crc>>1 ^ 0xA001
			} else {
				crc >>= 1
			}
		}
	}
	return crc
}

// CRC8XOR computes the simple longitudinal XOR checksum over data with the
// given initial value. ITU-T G.9959 (Z-Wave) R1/R2 frames use this with
// init 0xFF.
func CRC8XOR(init byte, data []byte) byte {
	c := init
	for _, b := range data {
		c ^= b
	}
	return c
}
