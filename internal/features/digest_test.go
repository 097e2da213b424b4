package features

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"testing"

	"cbvr/internal/imaging"
)

// Golden descriptor digests. Every other bit-identity test compares a fast
// path with a reference in the same process, so a shift in a shared layer
// (the analysis rescale, the planes, a kernel binding) moves both sides
// together and stays green while stored descriptors silently stop matching
// new queries. These digests are fixed: they change only when descriptors
// change on purpose, and such a change means every stored row needs a
// re-index. CI runs this test on the default build, under -tags purego and
// under GOAMD64=v3, so the assembly kernel, the portable binding and an
// FMA-capable build are all held to the same bits.

// splitmix64 is the digest frames' integer PRNG: no floating point, so a
// frame's pixels are the same on every architecture and build.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (s *splitmix64) intn(n int) int { return int(s.next() % uint64(n)) }

// digestFrame draws a w×h frame from seed: a flat background, rects
// solid rectangles, horizontal stripes of the given period (0: none) and
// per-pixel noise of ±noise.
func digestFrame(seed uint64, w, h, rects, period, noise int) *imaging.Image {
	rng := splitmix64(seed)
	im := imaging.New(w, h)
	im.Fill(uint8(rng.intn(256)), uint8(rng.intn(256)), uint8(rng.intn(256)))
	for i := 0; i < rects; i++ {
		x0, y0 := rng.intn(w), rng.intn(h)
		x1, y1 := x0+1+rng.intn(w/2+1), y0+1+rng.intn(h/2+1)
		r, g, b := uint8(rng.intn(256)), uint8(rng.intn(256)), uint8(rng.intn(256))
		for y := y0; y < y1 && y < h; y++ {
			for x := x0; x < x1 && x < w; x++ {
				im.Set(x, y, r, g, b)
			}
		}
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := (y*w + x) * 3
			for c := 0; c < 3; c++ {
				v := int(im.Pix[i+c])
				if period > 0 && (y/period)%2 == 1 {
					v = 255 - v
				}
				if noise > 0 {
					v += rng.intn(2*noise+1) - noise
				}
				im.Pix[i+c] = uint8(min(max(v, 0), 255))
			}
		}
	}
	return im
}

// digestFrames is the fixed frame set: the analysis size itself,
// downscales, upscales, a non-square frame and pure noise.
func digestFrames() []struct {
	name string
	im   *imaging.Image
} {
	return []struct {
		name string
		im   *imaging.Image
	}{
		{"blocks_300x300", digestFrame(1, AnalysisSize, AnalysisSize, 8, 0, 6)},
		{"blocks_160x120", digestFrame(2, 160, 120, 5, 0, 10)},
		{"stripes_320x240", digestFrame(3, 320, 240, 3, 7, 4)},
		{"stripes_96x64", digestFrame(4, 96, 64, 2, 3, 0)},
		{"noise_400x100", digestFrame(5, 400, 100, 0, 0, 127)},
		{"tiny_7x5", digestFrame(6, 7, 5, 2, 0, 20)},
	}
}

// descriptorDigests returns the SHA-256 of one descriptor's packed row
// (AppendTo, little-endian float64 bits) and of its String form.
func descriptorDigests(d Descriptor) (row, str string) {
	h := sha256.New()
	var b [8]byte
	for _, v := range d.AppendTo(nil) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	s := sha256.Sum256([]byte(d.String()))
	return hex.EncodeToString(h.Sum(nil)), hex.EncodeToString(s[:])
}

// goldenDigests holds, per frame and kind, the packed-row digest and the
// String digest.
var goldenDigests = map[string][2]string{
	"blocks_300x300/glcm":             {"851560978bfcca4e23304b61f9afe8681b934373b4068a0ffea9f9edb10ab9b7", "8d8a02e10b70fde424ce10756a9f76f43b421b7b5d3173c4a00f97fb9db57095"},
	"blocks_300x300/gabor":            {"ae36d999e3550eeeb19f09bebdd6e2c0f297a61e545a7c44c73f097a18ff4fba", "c576bedbf3120730e91046f4047f91db97368ba508498de209f80f53fa456833"},
	"blocks_300x300/tamura":           {"0c2606ab81790b8733eb1a03569011f7f910ba03e9cc0659f28233b07a049f98", "8e5f89b7e81f20c83a9ce10df1a16f31caf6f81418bd4a19c6ff84ae6344c417"},
	"blocks_300x300/histogram":        {"9171b690e629c422b7c97b33040d8d79d19755283a601bb1f682375bff6654f2", "806bb85bf2d0016e526d6cfd4738f67dcb40616281a33bd7f125f4d1fcdfa305"},
	"blocks_300x300/autocorrelogram":  {"26d0a7df6383b1e00a863a3904c49b5a1463c2850c2ba161d2a94e42c59a4176", "70333eed1e131dd4b032207af60be03125488b723520d7170a9173d4c5039255"},
	"blocks_300x300/regions":          {"8a412392410137e8d2d0067a34903661160a913c9870a0c414222fc8309c46d2", "91a74247f0f4b2152bcd7670f6eccdbb6bcdd6d02794be7085f714f29db6577f"},
	"blocks_300x300/naive":            {"ad95f049cdc432601a174ef9d80663c569b532b7220472d34ce5929884dd6bd0", "be78ae1734415adb6d6b4d93d98ed7b3d4bb28818c5d0512cf0e1cfbbbb86683"},
	"blocks_160x120/glcm":             {"803b0f5f3aeac04b15dc1395a648b14d38eecfd103f2a7362967d401b9f2f9f8", "76e38308c4a50c4584eaaea678ef2b64b475c09617d228be73755ba4e197a0c9"},
	"blocks_160x120/gabor":            {"f0819ec6e811dc28e6a1af62b8263d64ab1f13b126859606ea224c49a50e97a4", "5a008feb8d0907cad945ec84e1955d0db38e402b35d265db66e1a822fc7b5ae5"},
	"blocks_160x120/tamura":           {"d544bd62e7c780d2814e2eef20ad92c7f791c08d9ca5abd6fd9d63aa4b1180c6", "9bd9541f1802c49d039bf01a1afac2e141bcbb2c403255baf15999baa43ba862"},
	"blocks_160x120/histogram":        {"8382ddf284909f40997ee616a50ca50d8c3332201a9fa243060fc6768e3cb9da", "2e1f787f130bf41e5a22d7aef75ecea338f60b08646aef9a9e65a64449f1f4ba"},
	"blocks_160x120/autocorrelogram":  {"3f7ba02a57cd28ae2970e343b6bd3dabb4daf2dd94e574b167ace895f2be7747", "6e4f080a8a1fb1b104fafa27068e3b86824b812fd1533d24f2e3d4967ae2ccb5"},
	"blocks_160x120/regions":          {"08130bf4476807b562baaa468b61aa09a2e69ac26eeabb4a02bbd4642b0e87b7", "f7e91d85bfd6d037ef6463fc8a8882c61581980e8546cd374771891a94ebeead"},
	"blocks_160x120/naive":            {"20a59ab609a5be87c1c07d178ced2aef3e01368660948339c94e48d4ffd3184f", "018944b288fe4eb0636084121142e2dd4c95f855a7065799b895cd8fd334d3ad"},
	"stripes_320x240/glcm":            {"d57567c798c633a5feb7f9edc2d2908bbb8740620dfcba48685c759365482b5d", "f7fb2f069bafb4be3eb16f7aefbe53a6d517f594b8b632ce0c8641303556377c"},
	"stripes_320x240/gabor":           {"d7a71be8fd3db03b394f1d39accd36736caf2d81d158b26119117e5c56bc0b45", "46ef608d8466ace628a33c412222de14218c284bae86ee3950ad258e21449471"},
	"stripes_320x240/tamura":          {"6ba23fc7ccbec8d89c9fde03efb3a243966ae15915e7f4ae79e128a2566cfec3", "755843d0df66c3b877f0cc1c4363b197a18ce05448c5f5ecccbdea5ba1890591"},
	"stripes_320x240/histogram":       {"391e404eeec7f99dd08b8048bd1c52c0a527bfc5c3644466679e900535aa6873", "17d81c37af8cdcffae69325225a1fff002e167c9cd51cd0e4c0f00ff4c0f3a2b"},
	"stripes_320x240/autocorrelogram": {"16a1d0b81c0dcab835465eea376fe7e9bf400e0a1885b416e7be9a2d95119478", "76f0c638940dd399f73171531dd052f66b9154ab61a34c7a8c405e7bf8f6e1b7"},
	"stripes_320x240/regions":         {"b287a62b225f79003855573134caf11f13d7c8bc396e595e74663d8b164fefa1", "62c0fa8e534f119e134cf2890dd2f16ac3f8511eb09cd5ad2af0451ba21e497f"},
	"stripes_320x240/naive":           {"0417d25722a344de1be43ef532bd408668d8b32616bab2a36b64ee63e859d495", "f9bbf495b9bb8438ebdf3560c4d6717afd108b28d5a5c48eb2339113ec53a471"},
	"stripes_96x64/glcm":              {"0e69865dd07e73165ec61c97099df6f8218e35510a5e13c49f48b94267773969", "b81a089da30ba426934d380fa3d06c143b71ee5b6b0632d5a96dce737946b7b7"},
	"stripes_96x64/gabor":             {"2eef44c10d6de8421595ed3eb530ae0b9db6a436440d20ae92d04d902df0a4d0", "09febb7a0e65cbf30afebc4dbcb6ac77ca58d5ba616ff8ce1f4c3e4498cab0a5"},
	"stripes_96x64/tamura":            {"7dcf5f9d56c984c52c4d70d2c7d162a462f7b7a55e1c8b97b08ec924c3f45e4d", "8941a0a0ec8b44b06acf11b0f5c3a1a3a008651515c5469e1eb0e87a13914a15"},
	"stripes_96x64/histogram":         {"5e35b937f9459d663697d1c8cca9bcb5280137fbacd52675861bc599d67dda00", "9c86c1e8f61f9eab8827690bfdab12584d09fd58ba7bae0a9f9704f7b82e92c6"},
	"stripes_96x64/autocorrelogram":   {"4c1bf0b4b7defbb22f873d93676476622b46435d11bd4a1140525dd31e801577", "5f3109c482acf6cf511463e005e5a2f0ca4a0c591c6566a22a9e597dc01a669e"},
	"stripes_96x64/regions":           {"c57f42197f8a2fc06d1e8daa8bfad456ace689dd895739ead5e6cfb961929af8", "a84831c82a1e302238daa51b610de98fa71c266d46a915e46aea0888b99529ea"},
	"stripes_96x64/naive":             {"23687d8b9a7e87a22cec59ceebf4fd35a452df825a70faa71d67b4f12b714fcd", "2189fe357e60370f40e36f3f38fe35ad5d5057df7001c18f6e7dda7c40d54a4d"},
	"noise_400x100/glcm":              {"d196ea1dbdc8e775b1e46b432df1a4ccb9d1eb9169929d20299366eab2089208", "efbc6104794c695b0a1e20f0c5ae9c003b8adbb675852cc72df78b70be9f9423"},
	"noise_400x100/gabor":             {"e93aa11b7c5668ae97b5249b655c132a126e10361804b22da0da5ad869729d20", "d4083d941755277b7a1ce72b74ee722bee6adbe401869e343de5f6d979f4e199"},
	"noise_400x100/tamura":            {"3eeb4a893b8b1b085ef829893d1f19367f8cacf99f34e989264967694a549c90", "d5a0f2942ded9a69248187ae22809ae3b1fdb216ee4bc43c5f29a3ef4f51b4e1"},
	"noise_400x100/histogram":         {"c69447a21a6fe368e927de281966b833bf08c34cd1cb369adc88adf7dfce92a5", "8416b8a5aa8a96c126eb8eb36292dd6f154a856b5f48568cc8d6bf2e966f0197"},
	"noise_400x100/autocorrelogram":   {"bfb3f358ab57250dea62390a986f9f255a0efb8c451234b62da65fd03572e1bd", "7bacb3fbc13e232ecf98ec3e97f2eea302d9d39656f7c05cb197a5109ec00b6d"},
	"noise_400x100/regions":           {"3e15fe9cbfe5be231ed0cd4bf5e0fa1549ddf6012f7515566f351b6d5ebcc61c", "ba7b3121cc22e51a36a8af05973af7a1226f886d2335313e930293a5f00abb91"},
	"noise_400x100/naive":             {"8c9e7d65877cb415a17e01809d7d65d9f27dcc42bb046b1e13fa1e0cc37d83b2", "bc6c9a1691e0a749a209df10958eacc9976cb57813887b4b0216752b9ea38bc3"},
	"tiny_7x5/glcm":                   {"1e3d01d86280ff8ce74b69b75f9a4e2fb78a07e2b4a0218b8d253bc08f096f1e", "25e322c121b2a734816a8b312724947192832bd04f39e199e997a1830d90ab34"},
	"tiny_7x5/gabor":                  {"21bf29b2831fac9a59026eb8a8b82104f9c7b3fb468cd83f1d373d273229fdfe", "56b8704b00825f0f3b973f7de5bb20f7c8770e6898af11229cf88653e43b05de"},
	"tiny_7x5/tamura":                 {"1998c3327ec2b54089879a43111eedba7af2057c09e6010fafac13dac035faaa", "4e4a7bd6334d546034a7a4028e10b27030434a3f044b94d0068cc16844c6fe5b"},
	"tiny_7x5/histogram":              {"80d422d8f086298cdb5ffa47cd9d400e03ae22bec8d0f6cc83a9483bdf444a75", "b64fa3019b5fd21b209f2788fe901ab607cebbf6e3c8e97061b28112f32587ee"},
	"tiny_7x5/autocorrelogram":        {"6454f672f55e7cae97f5d9f2488e8edcb93a68dd224583cd8a733586feb14134", "58812a2ed72d409acdadbf91269ef994327b5819aab25a9f23f7ed3d7eb04f77"},
	"tiny_7x5/regions":                {"c7bd8a242999ccf6f6fa34a8244d201517902ca9e92eaec1f5f09d2b55f03be1", "878e33f42a2a81e7de1d56f2b006f6022dd6531c6e7811a5ece6f4855c1862eb"},
	"tiny_7x5/naive":                  {"9f7154c507ec69202e4052a4a54ebb1358cb855e656e01c8f0fc5c1ffe773f92", "05f3996f49ec1ccd5dad7c0d876035f5cb3b77367814bd0bd40330c3526a0075"},
}

// goldenJPEGSignatures holds the naive-signature digests of the fixed
// frames after a JPEG round trip (EncodeJPEG at the default quality, then
// decoding), generated through the RGB decode and rescale. They gate
// §4.1 selection, which reads a container frame's signature straight from
// the decoder's Y'CbCr planes.
var goldenJPEGSignatures = map[string][2]string{
	"blocks_300x300.jpg/naive":  {"90f1bdb20b3e6fb59e9a6ee99119fad376e9168c6d339b2edb4e43a40959dce2", "8be11b91d867a356c4ce74379ea737013b39765f140ec5b5014cd8cb60ea3fae"},
	"blocks_160x120.jpg/naive":  {"1e29b377603e06dd4254a34038fedff7d889aaa13ec44d2f1e943054db535201", "64de0581b10cec45e07cf72969c558262e0e896ae3c97abfddc3836115516196"},
	"stripes_320x240.jpg/naive": {"7ef5777d3f808a9cde193708c9ea69c9ccf4ebd8105c03c81ec5e2231817760a", "7501a852b2612c289f05f2184fe41df9543360335476a27b7ab557a0667e82f4"},
	"stripes_96x64.jpg/naive":   {"bf3f5e123bfcfea5b833a951f2b0557ef4e882d3c90dc684771a031eef104259", "596bfc0b4da0464df6c2302dad1f004d32145e5dfcab42d34ff23255009fe30e"},
	"noise_400x100.jpg/naive":   {"13755e3ba6acbbc381f19b458ce8a6c2f2bf3ff5127608e98c6f8b89b31b0fac", "459e124029f2846e8c3628c4029c3382c26e0343b7771cf56301cc4aec1ffce0"},
	"tiny_7x5.jpg/naive":        {"e5b5fd109064b6c888de6d52b14abaf0ebd579e0019982aa501329185955e8ae", "c7048037e74a6fbd9f3b069d19d5493dd5f6a70fa40d8ec64859d14a20e8b3ae"},
}

// checkDigest compares one descriptor against a golden digest pair.
func checkDigest(t *testing.T, key, path string, d Descriptor, want [2]string) {
	t.Helper()
	if row, str := descriptorDigests(d); row != want[0] || str != want[1] {
		t.Errorf("%s via %s: digests %s / %s, golden %s / %s", key, path, row, str, want[0], want[1])
	}
}

// TestDescriptorDigests pins every descriptor of the fixed frames, through
// the image entry point and through pooled planes, to the committed
// digests, and the naive signature of each frame, in memory and after a
// JPEG round trip, through selection's decode-light path as well. On a
// mismatch it logs the full table the build produces.
func TestDescriptorDigests(t *testing.T) {
	var table strings.Builder
	for _, f := range digestFrames() {
		set := ExtractAll(f.im)
		p := AcquirePlanes(f.im)
		pooled := p.ExtractAll()
		p.Release()
		for _, k := range AllKinds() {
			key := f.name + "/" + k.String()
			row, str := descriptorDigests(set.Get(k))
			fmt.Fprintf(&table, "\t%q: {%q, %q},\n", key, row, str)
			if prow, pstr := descriptorDigests(pooled.Get(k)); prow != row || pstr != str {
				t.Errorf("%s: pooled planes diverge from ExtractAll", key)
			}
			if k == KindNaive {
				sig := NaiveOf(f.im.Source())
				checkDigest(t, key, "NaiveOf", &sig, goldenDigests[key])
			}
			want, ok := goldenDigests[key]
			switch {
			case !ok:
				t.Errorf("%s: no golden digest", key)
			case want[0] != row:
				t.Errorf("%s: packed row digest %s, golden %s", key, row, want[0])
			case want[1] != str:
				t.Errorf("%s: String digest %s, golden %s", key, str, want[1])
			}
		}

		var jpg bytes.Buffer
		if err := f.im.EncodeJPEG(&jpg, 0); err != nil {
			t.Fatal(err)
		}
		key := f.name + ".jpg/naive"
		want, ok := goldenJPEGSignatures[key]
		if !ok {
			t.Errorf("%s: no golden digest", key)
		}
		rgb, err := imaging.DecodeJPEG(bytes.NewReader(jpg.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		checkDigest(t, key, "DecodeJPEG + ExtractNaive", ExtractNaive(rgb), want)
		src, err := imaging.DecodeJPEGSource(bytes.NewReader(jpg.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		sig := NaiveOf(src)
		checkDigest(t, key, "DecodeJPEGSource + NaiveOf", &sig, want)
	}
	if len(goldenDigests) != len(digestFrames())*int(NumKinds) {
		t.Errorf("golden table has %d entries, want %d", len(goldenDigests), len(digestFrames())*int(NumKinds))
	}
	if t.Failed() {
		t.Logf("digests this build produces:\n%s", table.String())
	}
}
