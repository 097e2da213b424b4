// Package catalog defines the paper's database schema (§3.4) on top of the
// vstore engine and provides typed access to it:
//
//	VIDEO_STORE(V_ID, V_NAME, VIDEO, STREAM, DOSTORE)
//	KEY_FRAMES(I_ID, I_NAME, IMAGE, MIN, MAX, SCH, GLCM, GABOR, TAMURA,
//	           MAJORREGIONS, V_ID, …)
//
// Exactly as in the paper, VIDEO is the full video object (here a CVJ
// container), STREAM is the "stream of keyframes" (a CVJ of only the key
// frames), IMAGE is the key frame JPEG, MIN/MAX is the §4.2 range-finder
// bucket, and the feature columns carry the §4.3–4.8 string
// serialisations. MIN/MAX has no secondary index: the engine reads the
// bucket once when it warms its cache, and its in-memory bucket column is
// the one §4.2 lookup a search makes.
//
// Extensions beyond the paper's CREATE TABLE (documented in DESIGN.md):
// ACC and NAIVE feature columns (Table 1 evaluates both features, so they
// must be stored), REGIONS (the full region-growing triple backing the
// MAJORREGIONS number) and FRAME_IDX (the key frame's position inside its
// video, required by the dynamic-programming video similarity).
package catalog

import (
	"errors"
	"fmt"
	"io"
	"time"

	"cbvr/internal/rangeindex"
	"cbvr/internal/vstore"
)

// Table names.
const (
	TableVideoStore = "VIDEO_STORE"
	TableKeyFrames  = "KEY_FRAMES"
)

// VideoStoreSchema returns the VIDEO_STORE schema.
func VideoStoreSchema() vstore.Schema {
	return vstore.Schema{
		Name: TableVideoStore,
		Cols: []vstore.Column{
			{Name: "V_ID", Type: vstore.TypeInt64, NotNull: true},
			{Name: "V_NAME", Type: vstore.TypeText},
			{Name: "VIDEO", Type: vstore.TypeBlob},
			{Name: "STREAM", Type: vstore.TypeBlob},
			{Name: "DOSTORE", Type: vstore.TypeTime},
		},
	}
}

// KeyFramesSchema returns the KEY_FRAMES schema.
func KeyFramesSchema() vstore.Schema {
	return vstore.Schema{
		Name: TableKeyFrames,
		Cols: []vstore.Column{
			{Name: "I_ID", Type: vstore.TypeInt64, NotNull: true},
			{Name: "I_NAME", Type: vstore.TypeText, NotNull: true},
			{Name: "IMAGE", Type: vstore.TypeBlob},
			{Name: "MIN", Type: vstore.TypeInt64, NotNull: true},
			{Name: "MAX", Type: vstore.TypeInt64, NotNull: true},
			{Name: "SCH", Type: vstore.TypeText},
			{Name: "GLCM", Type: vstore.TypeText},
			{Name: "GABOR", Type: vstore.TypeText},
			{Name: "TAMURA", Type: vstore.TypeText},
			{Name: "MAJORREGIONS", Type: vstore.TypeInt64},
			{Name: "V_ID", Type: vstore.TypeInt64},
			{Name: "ACC", Type: vstore.TypeText},
			{Name: "NAIVE", Type: vstore.TypeText},
			{Name: "REGIONS", Type: vstore.TypeText},
			{Name: "FRAME_IDX", Type: vstore.TypeInt64},
		},
	}
}

// Video is a VIDEO_STORE row. VideoRef and StreamRef reference the VIDEO
// and STREAM container chains, which enter the store only staged: ingest
// writes the container bytes page by page outside any transaction
// (vstore.NewStagedBlobWriter), then adopts the chains and inserts the
// references in one short commit, so the compressed container never has
// to sit in memory. They leave it only through a ContainerReader. A zero
// reference stores an empty container.
type Video struct {
	ID        int64
	Name      string
	VideoRef  vstore.BlobRef
	StreamRef vstore.BlobRef
	DoStore   time.Time
}

// VideoInfo is a listing row without the BLOB payloads.
type VideoInfo struct {
	ID       int64     `json:"id"`
	Name     string    `json:"name"`
	VideoLen int64     `json:"video_len"`
	DoStore  time.Time `json:"do_store"`
}

// KeyFrame is a KEY_FRAMES row. Image carries the JPEG bytes on insert;
// reads return ImageRef and fetch bytes lazily via Store.KeyFrameImage.
type KeyFrame struct {
	ID           int64
	Name         string
	Image        []byte
	ImageRef     vstore.BlobRef
	Min, Max     int
	SCH          string
	GLCM         string
	Gabor        string
	Tamura       string
	ACC          string
	Naive        string
	Regions      string
	MajorRegions int
	VideoID      int64
	FrameIndex   int
}

// Range returns the frame's §4.2 bucket.
func (k *KeyFrame) Range() rangeindex.Range {
	return rangeindex.Range{Min: k.Min, Max: k.Max}
}

// Store wraps a vstore DB holding the CBVR schema.
type Store struct {
	db     *vstore.DB
	videos *vstore.Table
	frames *vstore.Table
}

// Open opens (creating if necessary) a CBVR store at path.
func Open(path string, opts *vstore.Options) (*Store, error) {
	db, err := vstore.Open(path, opts)
	if err != nil {
		return nil, err
	}
	s := &Store{db: db}
	if err := s.ensureSchema(); err != nil {
		db.Close()
		return nil, err
	}
	if s.videos, err = db.Table(TableVideoStore); err != nil {
		db.Close()
		return nil, err
	}
	if s.frames, err = db.Table(TableKeyFrames); err != nil {
		db.Close()
		return nil, err
	}
	return s, nil
}

func (s *Store) ensureSchema() error {
	have := make(map[string]bool)
	for _, n := range s.db.TableNames() {
		have[n] = true
	}
	if have[TableVideoStore] && have[TableKeyFrames] {
		return nil
	}
	tx, err := s.db.Begin()
	if err != nil {
		return err
	}
	if !have[TableVideoStore] {
		if _, err := s.db.CreateTable(tx, VideoStoreSchema()); err != nil {
			tx.Abort()
			return err
		}
	}
	if !have[TableKeyFrames] {
		if _, err := s.db.CreateTable(tx, KeyFramesSchema()); err != nil {
			tx.Abort()
			return err
		}
	}
	return tx.Commit()
}

// Close closes the underlying database.
func (s *Store) Close() error { return s.db.Close() }

// DB exposes the underlying engine (stats, checkpoints, crash tests).
func (s *Store) DB() *vstore.DB { return s.db }

// Begin starts a write transaction on the underlying database.
func (s *Store) Begin() (*vstore.Txn, error) { return s.db.Begin() }

// InsertVideo adds a VIDEO_STORE row inside tx, returning V_ID.
func (s *Store) InsertVideo(tx *vstore.Txn, v *Video) (int64, error) {
	pk := vstore.NullV(vstore.TypeInt64)
	if v.ID != 0 {
		pk = vstore.Int64(v.ID)
	}
	when := v.DoStore
	if when.IsZero() {
		when = time.Unix(0, 0).UTC()
	}
	id, err := s.videos.Insert(tx, []vstore.Value{
		pk,
		vstore.Text(v.Name),
		vstore.BlobRefV(v.VideoRef),
		vstore.BlobRefV(v.StreamRef),
		vstore.TimeV(when),
	})
	if err != nil {
		return 0, fmt.Errorf("catalog: insert video %q: %w", v.Name, err)
	}
	v.ID = id
	return id, nil
}

// GetVideoInfo fetches a video row without its BLOB payloads.
func (s *Store) GetVideoInfo(tx *vstore.Txn, id int64) (*VideoInfo, bool, error) {
	row, ok, err := s.videos.Get(tx, id)
	if err != nil || !ok {
		return nil, false, err
	}
	return videoInfo(id, row), true, nil
}

func videoInfo(pk int64, row []vstore.Value) *VideoInfo {
	return &VideoInfo{ID: pk, Name: row[1].Str, VideoLen: row[2].Blob.Len, DoStore: row[4].Time}
}

// VideoRefs fetches the VIDEO and STREAM blob references without reading
// either payload. Readers that run beside writers use OpenContainer.
func (s *Store) VideoRefs(tx *vstore.Txn, id int64) (video, stream vstore.BlobRef, ok bool, err error) {
	row, ok, err := s.videos.Get(tx, id)
	if err != nil || !ok {
		return vstore.BlobRef{}, vstore.BlobRef{}, false, err
	}
	return row[2].Blob, row[3].Blob, true, nil
}

// Container selects one of a video's two container columns.
type Container int

// The container columns, by their VIDEO_STORE column index.
const (
	VideoContainer  Container = 2 // VIDEO: the full CVJ container
	StreamContainer Container = 3 // STREAM: the key-frame-only CVJ
)

// ErrContainerChanged fails a ContainerReader whose row no longer names
// its chain: the video was deleted mid-read, and the bytes of that Read
// may be another value's.
var ErrContainerChanged = errors.New("catalog: container deleted while being read")

// ContainerReader streams a VIDEO or STREAM chain with no lock held
// between reads, while writers may delete the row and reuse its pages.
// After every Read it re-reads the row and fails unless the row still
// names the same chain. That is sound because container chains are only
// staged, and a staged chain starts on a fresh file extension: no later
// row, even one reusing the ID, carries an equal reference.
type ContainerReader struct {
	s   *Store
	id  int64
	col Container
	ref vstore.BlobRef
	br  *vstore.BlobReader
}

// OpenContainer returns a reader over video id's VIDEO or STREAM chain. It
// reads the row only, not the chain; ok is false when no such video
// exists.
func (s *Store) OpenContainer(id int64, c Container) (r *ContainerReader, ok bool, err error) {
	row, ok, err := s.videos.Get(nil, id)
	if err != nil || !ok {
		return nil, false, err
	}
	ref := row[c].Blob
	return &ContainerReader{s: s, id: id, col: c, ref: ref, br: s.db.NewBlobReader(nil, ref)}, true, nil
}

// Len is the container's length in bytes, as its row records it.
func (r *ContainerReader) Len() int64 { return r.ref.Len }

// Read implements io.Reader. Bytes are returned only once the row has
// been re-read and still names the chain they came from; a row that lost
// the chain never names it again, so the failure repeats.
func (r *ContainerReader) Read(p []byte) (int, error) {
	n, err := r.br.Read(p)
	if err == io.EOF {
		return n, err // the reference's length is spent; no page was read
	}
	row, ok, gerr := r.s.videos.Get(nil, r.id)
	if gerr != nil {
		return 0, gerr
	}
	if !ok || row[r.col].Blob != r.ref {
		return 0, ErrContainerChanged
	}
	return n, err
}

// DeleteVideo removes a video row and all of its key frames.
func (s *Store) DeleteVideo(tx *vstore.Txn, id int64) error {
	ok, err := s.videos.Delete(tx, id)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("catalog: no video %d", id)
	}
	kfs, err := s.KeyFramesOfVideo(tx, id)
	if err != nil {
		return err
	}
	for _, kf := range kfs {
		if _, err := s.frames.Delete(tx, kf.ID); err != nil {
			return err
		}
	}
	return nil
}

// ListVideos returns all videos in V_ID order, without BLOBs.
func (s *Store) ListVideos(tx *vstore.Txn) ([]*VideoInfo, error) {
	var out []*VideoInfo
	err := s.videos.Scan(tx, func(pk int64, row []vstore.Value) (bool, error) {
		out = append(out, videoInfo(pk, row))
		return true, nil
	})
	return out, err
}

// InsertKeyFrame adds a KEY_FRAMES row inside tx, returning I_ID.
func (s *Store) InsertKeyFrame(tx *vstore.Txn, k *KeyFrame) (int64, error) {
	pk := vstore.NullV(vstore.TypeInt64)
	if k.ID != 0 {
		pk = vstore.Int64(k.ID)
	}
	id, err := s.frames.Insert(tx, keyFrameRow(k, pk, vstore.Blob(k.Image)))
	if err != nil {
		return 0, fmt.Errorf("catalog: insert key frame %q: %w", k.Name, err)
	}
	k.ID = id
	return id, nil
}

// UpdateKeyFrame replaces the KEY_FRAMES row at k.ID inside tx, keeping
// its stored IMAGE blob chain (k.ImageRef) as-is: the re-index path
// rewrites every feature column of a row it read back, never the JPEG.
func (s *Store) UpdateKeyFrame(tx *vstore.Txn, k *KeyFrame) error {
	if err := s.frames.Update(tx, k.ID, keyFrameRow(k, vstore.Int64(k.ID), vstore.BlobRefV(k.ImageRef))); err != nil {
		return fmt.Errorf("catalog: update key frame %d: %w", k.ID, err)
	}
	return nil
}

// keyFrameRow lays a key frame out as a KEY_FRAMES row in schema column
// order, the inverse of keyFrameFromRow. Insert and update differ only in
// the I_ID and IMAGE values they pass.
func keyFrameRow(k *KeyFrame, pk, image vstore.Value) []vstore.Value {
	return []vstore.Value{
		pk,
		vstore.Text(k.Name),
		image,
		vstore.Int64(int64(k.Min)),
		vstore.Int64(int64(k.Max)),
		vstore.Text(k.SCH),
		vstore.Text(k.GLCM),
		vstore.Text(k.Gabor),
		vstore.Text(k.Tamura),
		vstore.Int64(int64(k.MajorRegions)),
		vstore.Int64(k.VideoID),
		vstore.Text(k.ACC),
		vstore.Text(k.Naive),
		vstore.Text(k.Regions),
		vstore.Int64(int64(k.FrameIndex)),
	}
}

func keyFrameFromRow(pk int64, row []vstore.Value) *KeyFrame {
	return &KeyFrame{
		ID:           pk,
		Name:         row[1].Str,
		ImageRef:     row[2].Blob,
		Min:          int(row[3].Int),
		Max:          int(row[4].Int),
		SCH:          row[5].Str,
		GLCM:         row[6].Str,
		Gabor:        row[7].Str,
		Tamura:       row[8].Str,
		MajorRegions: int(row[9].Int),
		VideoID:      row[10].Int,
		ACC:          row[11].Str,
		Naive:        row[12].Str,
		Regions:      row[13].Str,
		FrameIndex:   int(row[14].Int),
	}
}

// GetKeyFrame fetches a key-frame row (image lazy).
func (s *Store) GetKeyFrame(tx *vstore.Txn, id int64) (*KeyFrame, bool, error) {
	row, ok, err := s.frames.Get(tx, id)
	if err != nil || !ok {
		return nil, false, err
	}
	return keyFrameFromRow(id, row), true, nil
}

// KeyFrameImage fetches the IMAGE blob (JPEG bytes) of a key frame.
func (s *Store) KeyFrameImage(tx *vstore.Txn, id int64) ([]byte, bool, error) {
	row, ok, err := s.frames.Get(tx, id)
	if err != nil || !ok {
		return nil, false, err
	}
	b, err := s.db.ReadBlob(tx, row[2].Blob)
	return b, true, err
}

// ScanKeyFrames visits all key frames in I_ID order (images lazy).
func (s *Store) ScanKeyFrames(tx *vstore.Txn, fn func(*KeyFrame) (bool, error)) error {
	return s.frames.Scan(tx, func(pk int64, row []vstore.Value) (bool, error) {
		return fn(keyFrameFromRow(pk, row))
	})
}

// KeyFramesOfVideo returns the video's key frames in frame order.
func (s *Store) KeyFramesOfVideo(tx *vstore.Txn, videoID int64) ([]*KeyFrame, error) {
	var out []*KeyFrame
	err := s.ScanKeyFrames(tx, func(k *KeyFrame) (bool, error) {
		if k.VideoID == videoID {
			out = append(out, k)
		}
		return true, nil
	})
	return out, err
}

// CountVideos returns the VIDEO_STORE row count.
func (s *Store) CountVideos(tx *vstore.Txn) (int, error) { return s.videos.Count(tx) }

// CountKeyFrames returns the KEY_FRAMES row count.
func (s *Store) CountKeyFrames(tx *vstore.Txn) (int, error) { return s.frames.Count(tx) }
